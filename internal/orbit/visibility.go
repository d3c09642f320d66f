package orbit

import "time"

// Window is a contiguous interval during which a visibility condition holds.
type Window struct {
	Start, End time.Time
}

// Duration returns the window length.
func (w Window) Duration() time.Duration { return w.End.Sub(w.Start) }

// Condition is a time-dependent predicate, e.g. "satellite above 10°
// elevation from this ground station" or "LOS exists between satellites".
type Condition func(t time.Time) (bool, error)

// FindWindows scans [start, start+span] with the given coarse step and
// refines each transition by bisection to within tol, returning all windows
// where cond holds. This is the numerical in-view-period method of Lawton
// (1987): coarse sampling assumes the condition doesn't flicker faster than
// the step.
func FindWindows(cond Condition, start time.Time, span, step, tol time.Duration) ([]Window, error) {
	if step <= 0 {
		step = 30 * time.Second
	}
	if tol <= 0 {
		tol = time.Second
	}
	end := start.Add(span)

	var windows []Window
	prevT := start
	prev, err := cond(prevT)
	if err != nil {
		return nil, err
	}
	var openStart time.Time
	open := prev
	if open {
		openStart = start
	}

	for t := start.Add(step); !t.After(end); t = t.Add(step) {
		cur, err := cond(t)
		if err != nil {
			return nil, err
		}
		if cur != prev {
			cross, err := bisectTransition(cond, prevT, t, prev, tol)
			if err != nil {
				return nil, err
			}
			if cur {
				openStart = cross
				open = true
			} else {
				windows = append(windows, Window{Start: openStart, End: cross})
				open = false
			}
		}
		prev, prevT = cur, t
	}
	if open {
		windows = append(windows, Window{Start: openStart, End: end})
	}
	return windows, nil
}

// bisectTransition locates the condition flip between t0 (state s0) and t1
// (state !s0) to within tol.
func bisectTransition(cond Condition, t0, t1 time.Time, s0 bool, tol time.Duration) (time.Time, error) {
	for t1.Sub(t0) > tol {
		mid := t0.Add(t1.Sub(t0) / 2)
		s, err := cond(mid)
		if err != nil {
			return time.Time{}, err
		}
		if s == s0 {
			t0 = mid
		} else {
			t1 = mid
		}
	}
	return t1, nil
}

// GroundStationVisibility returns a Condition that is true when prop's
// satellite is above minElevRad as seen from the geodetic site.
func GroundStationVisibility(prop Propagator, site Geodetic, minElevRad float64) Condition {
	siteECEF := site.ECEF()
	return func(t time.Time) (bool, error) {
		s, err := prop.State(t)
		if err != nil {
			return false, err
		}
		satECEF := ECIToECEF(s.Position, t)
		return ElevationAngle(siteECEF, satECEF) >= minElevRad, nil
	}
}

// CoverageGap reports the longest interval within [start, start+span] in
// which cond is false, scanning at the given step (no refinement). A zero
// result means cond held at every sample.
func CoverageGap(cond Condition, start time.Time, span, step time.Duration) (time.Duration, error) {
	if step <= 0 {
		step = 30 * time.Second
	}
	var longest, current time.Duration
	for dt := time.Duration(0); dt <= span; dt += step {
		ok, err := cond(start.Add(dt))
		if err != nil {
			return 0, err
		}
		if ok {
			current = 0
			continue
		}
		current += step
		if current > longest {
			longest = current
		}
	}
	return longest, nil
}

// AnyVisible returns a Condition true when at least one of the targets has
// line of sight to the observer satellite (used for the GEO SµDC coverage
// experiment: every EO satellite must see ≥1 of the 3 GEO SµDCs).
func AnyVisible(observer Propagator, targets []Propagator, grazeKm float64) Condition {
	return func(t time.Time) (bool, error) {
		so, err := observer.State(t)
		if err != nil {
			return false, err
		}
		for _, tgt := range targets {
			st, err := tgt.State(t)
			if err != nil {
				return false, err
			}
			if LineOfSight(so.Position, st.Position, grazeKm) {
				return true, nil
			}
		}
		return false, nil
	}
}
