package netsim

import (
	"strconv"
	"strings"

	"spacedc/internal/obs"
	"spacedc/internal/units"
)

// LinkReport is one link's measurement-window record.
type LinkReport struct {
	Name string
	// Utilization is sent bits over capacity × window, clamped to 1.
	Utilization float64
	SentBits    float64
	// Drops counts segments lost at this link: queue overflow plus
	// buffered data destroyed by a satellite failure.
	Drops         int
	PeakQueueBits float64
}

// Result summarizes one run over its measurement window (after warmup).
type Result struct {
	Name        string
	MeasuredSec float64

	// Offered/Delivered are flow-level rates over the window; the ratio
	// is the delivered fraction (≈1 for a stable, fault-free network).
	OfferedRate   units.DataRate
	DeliveredRate units.DataRate
	DeliveryRatio float64
	OfferedSegs   int
	DeliveredSegs int

	// LatencySec summarizes end-to-end segment delivery latency in
	// seconds, measured from first transmission (retransmissions included).
	LatencySec obs.Summary

	// BottleneckUtil is the highest per-link utilization; BottleneckLink
	// names the link carrying it (the Fig 11 ISL bottleneck).
	BottleneckUtil float64
	BottleneckLink string
	Links          []LinkReport

	// Loss and recovery accounting.
	LinkDrops    int // queue overflow + satellite-failure purges
	NoRouteDrops int // segments emitted while the source was partitioned
	Retransmits  int
	Duplicates   int // copies arriving after an earlier copy already did
	// LateAbandoned counts copies that arrived only after the source
	// exhausted the attempt budget — deliveries the source had written
	// off, previously misfiled as Duplicates.
	LateAbandoned int
	Abandoned     int // segments that exhausted their attempt budget

	// Dynamics accounting. RouteRecomputes counts every routing update:
	// the full BFS at the start and at each step that crosses an epoch
	// boundary, plus the incremental ones. RouteRepairs is the subset
	// triggered by fault/eclipse transitions between boundaries, which the
	// incremental maintainer services by subtree repair instead of a full
	// recompute.
	FaultEvents     int
	RouteRecomputes int
	RouteRepairs    int
	PeakQueueBits   float64
}

// finalizeLinks folds per-link counters into the result. Every link name
// is a slice of one string, so naming all the links costs one
// allocation; a graph without links leaves Links nil.
func (r *Result) finalizeLinks(g *Graph) {
	if len(g.Links) == 0 {
		return
	}
	r.Links = make([]LinkReport, 0, len(g.Links))
	var scratch [linkNameMax]byte
	var names strings.Builder
	maxID := strconv.AppendInt(scratch[:0], int64(len(g.nodes)-1), 10)
	names.Grow(len(g.Links) * (2*(len("sudc")+len(maxID)) + len("→")))
	for _, l := range g.Links {
		start := names.Len()
		names.Write(g.appendLinkName(scratch[:0], l))
		util := 0.0
		if l.CapacityBps > 0 && r.MeasuredSec > 0 {
			util = l.sentBits / (l.CapacityBps * r.MeasuredSec)
			if util > 1 {
				util = 1
			}
		}
		rep := LinkReport{
			Name:          names.String()[start:],
			Utilization:   util,
			SentBits:      l.sentBits,
			Drops:         l.drops,
			PeakQueueBits: l.peakQBits,
		}
		r.Links = append(r.Links, rep)
		r.LinkDrops += l.drops
		if util > r.BottleneckUtil {
			r.BottleneckUtil = util
			r.BottleneckLink = rep.Name
		}
		if l.peakQBits > r.PeakQueueBits {
			r.PeakQueueBits = l.peakQBits
		}
	}
}
