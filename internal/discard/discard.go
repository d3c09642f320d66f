// Package discard models early discard — dropping frames on board before
// they consume downlink or compute. It carries the paper's Table 3 discard
// rates and effective compression ratios, the algebra for combining
// criteria, and working image classifiers that make the discard decision on
// synthetic scenes the way an on-board pipeline would on real ones.
package discard

import (
	"fmt"
	"math"

	"spacedc/internal/eoimage"
)

// Criterion is one early-discard rule from Table 3.
type Criterion struct {
	Name string
	// Rate is the fraction of frames the rule discards, derived from
	// gross Earth characteristics (50% night, 70% ocean, …).
	Rate float64
}

// ECR returns the effective compression ratio of the criterion:
// 1 / (1 - rate). A rule that drops 95% of frames is a 20× ECR.
func (c Criterion) ECR() float64 {
	if c.Rate >= 1 {
		return math.Inf(1)
	}
	return 1 / (1 - c.Rate)
}

// Table 3 criteria.
var (
	None        = Criterion{Name: "None", Rate: 0}
	Night       = Criterion{Name: "Night", Rate: 0.5}
	Ocean       = Criterion{Name: "Ocean", Rate: 0.7}
	Uninhabited = Criterion{Name: "Uninhabited", Rate: 0.9}
	NonBuiltUp  = Criterion{Name: "Non-Built-Up", Rate: 0.98}
	Cloudy      = Criterion{Name: "Cloudy", Rate: 0.67}
)

// Table3 returns the paper's Table 3 rows in order.
func Table3() []Criterion {
	return []Criterion{None, Night, Ocean, Uninhabited, NonBuiltUp, Cloudy}
}

// CombineIndependent returns the combined discard rate of several criteria
// under the independence assumption: 1 - Π(1 - rᵢ). The paper cautions
// this is optimistic — cloud cover correlates with ocean, uninhabited
// implies non-built-up — so real combined rates are lower; use it as an
// upper bound.
func CombineIndependent(criteria ...Criterion) Criterion {
	keep := 1.0
	name := ""
	for i, c := range criteria {
		keep *= 1 - c.Rate
		if i > 0 {
			name += "+"
		}
		name += c.Name
	}
	return Criterion{Name: name, Rate: 1 - keep}
}

// Classifier decides whether a frame should be discarded.
type Classifier interface {
	// Discard reports whether the scene should be dropped.
	Discard(s *eoimage.Scene) bool
}

// NightClassifier drops frames whose mean luminance is below Threshold
// (0–255 scale). Zero threshold means the default of 20.
type NightClassifier struct {
	Threshold float64
}

// Discard implements Classifier.
func (n NightClassifier) Discard(s *eoimage.Scene) bool {
	th := n.Threshold
	if th == 0 {
		th = 20
	}
	return meanLuminance(s) < th
}

// OceanClassifier drops frames dominated by open water, detected by blue
// channel dominance. MinBlueFraction is the share of blue-dominant pixels
// required to call the frame ocean (default 0.8).
type OceanClassifier struct {
	MinBlueFraction float64
}

// Discard implements Classifier.
func (o OceanClassifier) Discard(s *eoimage.Scene) bool {
	minFrac := o.MinBlueFraction
	if minFrac == 0 {
		minFrac = 0.8
	}
	blue := 0
	for i := 0; i < s.Pixels(); i++ {
		if float64(s.B[i]) > 1.15*float64(s.R[i]) && s.B[i] > s.G[i] {
			blue++
		}
	}
	return float64(blue)/float64(s.Pixels()) >= minFrac
}

// CloudClassifier drops frames whose bright-white pixel share exceeds
// MaxCloudFraction (default 0.6, near the paper's 2/3 global cloud cover).
type CloudClassifier struct {
	MaxCloudFraction float64
}

// Discard implements Classifier.
func (c CloudClassifier) Discard(s *eoimage.Scene) bool {
	maxFrac := c.MaxCloudFraction
	if maxFrac == 0 {
		maxFrac = 0.6
	}
	cloudy := 0
	for i := 0; i < s.Pixels(); i++ {
		r, g, b := float64(s.R[i]), float64(s.G[i]), float64(s.B[i])
		bright := r > 150 && g > 150 && b > 150
		gray := math.Abs(r-g) < 40 && math.Abs(g-b) < 40
		if bright && gray {
			cloudy++
		}
	}
	return float64(cloudy)/float64(s.Pixels()) >= maxFrac
}

// meanLuminance returns the average of (R+G+B)/3 over the scene.
func meanLuminance(s *eoimage.Scene) float64 {
	var total float64
	for i := 0; i < s.Pixels(); i++ {
		total += (float64(s.R[i]) + float64(s.G[i]) + float64(s.B[i])) / 3
	}
	return total / float64(s.Pixels())
}

// Pipeline applies classifiers in order; a frame is discarded when any
// classifier votes to drop it.
type Pipeline struct {
	Classifiers []Classifier
}

// Discard reports the combined decision.
func (p Pipeline) Discard(s *eoimage.Scene) bool {
	for _, c := range p.Classifiers {
		if c.Discard(s) {
			return true
		}
	}
	return false
}

// Stats summarizes a pipeline evaluation over a batch of frames.
type Stats struct {
	Frames    int
	Discarded int
}

// Rate returns the achieved discard rate.
func (s Stats) Rate() float64 {
	if s.Frames == 0 {
		return 0
	}
	return float64(s.Discarded) / float64(s.Frames)
}

// Evaluate runs the pipeline over frames and tallies the discard rate.
func (p Pipeline) Evaluate(frames []*eoimage.Scene) Stats {
	st := Stats{Frames: len(frames)}
	for _, f := range frames {
		if p.Discard(f) {
			st.Discarded++
		}
	}
	return st
}

// ValidateRate checks a criterion's rate is a probability.
func (c Criterion) ValidateRate() error {
	if c.Rate < 0 || c.Rate > 1 {
		return fmt.Errorf("discard: rate %v outside [0,1]", c.Rate)
	}
	return nil
}
