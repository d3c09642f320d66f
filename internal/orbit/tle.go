package orbit

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// TLE is a parsed NORAD two-line element set. Angles are radians and the
// mean motion is rad/min, ready for SGP4 initialization.
type TLE struct {
	Name         string    // optional title line
	NoradID      string    // catalog number, columns 3–7 of line 1
	Epoch        time.Time // UTC epoch
	BStar        float64   // drag term, 1/earth-radii
	Inclination  float64   // radians
	RAAN         float64   // radians
	Eccentricity float64
	ArgPerigee   float64 // radians
	MeanAnomaly  float64 // radians
	MeanMotion   float64 // rad/min
}

// ParseTLE parses a two- or three-line element set. When three lines are
// given the first is the satellite name. Both line checksums are verified.
func ParseTLE(text string) (TLE, error) {
	var lines []string
	for _, l := range strings.Split(text, "\n") {
		if strings.TrimSpace(l) != "" {
			lines = append(lines, strings.TrimRight(l, "\r"))
		}
	}
	var tle TLE
	switch len(lines) {
	case 3:
		tle.Name = strings.TrimSpace(lines[0])
		lines = lines[1:]
	case 2:
	default:
		return TLE{}, fmt.Errorf("tle: want 2 or 3 lines, got %d", len(lines))
	}
	l1, l2 := lines[0], lines[1]
	if len(l1) < 68 || len(l2) < 68 {
		return TLE{}, fmt.Errorf("tle: lines too short (%d, %d chars)", len(l1), len(l2))
	}
	if l1[0] != '1' || l2[0] != '2' {
		return TLE{}, fmt.Errorf("tle: bad line numbers %q, %q", l1[0], l2[0])
	}
	for i, l := range []string{l1, l2} {
		if len(l) >= 69 {
			if err := verifyChecksum(l); err != nil {
				return TLE{}, fmt.Errorf("tle: line %d: %w", i+1, err)
			}
		}
	}

	tle.NoradID = strings.TrimSpace(l1[2:7])

	epoch, err := parseTLEEpoch(l1[18:32])
	if err != nil {
		return TLE{}, fmt.Errorf("tle: epoch: %w", err)
	}
	tle.Epoch = epoch

	tle.BStar, err = parseTLEExp(l1[53:61])
	if err != nil {
		return TLE{}, fmt.Errorf("tle: bstar: %w", err)
	}

	deg := math.Pi / 180
	fields := []struct {
		dst   *float64
		src   string
		scale float64
	}{
		{&tle.Inclination, l2[8:16], deg},
		{&tle.RAAN, l2[17:25], deg},
		{&tle.ArgPerigee, l2[34:42], deg},
		{&tle.MeanAnomaly, l2[43:51], deg},
	}
	for _, f := range fields {
		v, err := strconv.ParseFloat(strings.TrimSpace(f.src), 64)
		if err != nil {
			return TLE{}, fmt.Errorf("tle: field %q: %w", f.src, err)
		}
		*f.dst = v * f.scale
	}

	// Eccentricity has an implied leading decimal point.
	eccStr := strings.TrimSpace(l2[26:33])
	ecc, err := strconv.ParseFloat("0."+eccStr, 64)
	if err != nil {
		return TLE{}, fmt.Errorf("tle: eccentricity %q: %w", eccStr, err)
	}
	tle.Eccentricity = ecc

	// Mean motion in revs/day → rad/min.
	mm, err := strconv.ParseFloat(strings.TrimSpace(l2[52:63]), 64)
	if err != nil {
		return TLE{}, fmt.Errorf("tle: mean motion: %w", err)
	}
	tle.MeanMotion = mm * 2 * math.Pi / 1440

	return tle, nil
}

// verifyChecksum validates the modulo-10 checksum in column 69.
func verifyChecksum(line string) error {
	sum := 0
	for _, c := range line[:68] {
		switch {
		case c >= '0' && c <= '9':
			sum += int(c - '0')
		case c == '-':
			sum++
		}
	}
	want := int(line[68] - '0')
	if sum%10 != want {
		return fmt.Errorf("checksum %d != %d", sum%10, want)
	}
	return nil
}

// parseTLEEpoch parses the YYDDD.DDDDDDDD epoch field.
func parseTLEEpoch(s string) (time.Time, error) {
	s = strings.TrimSpace(s)
	yy, err := strconv.Atoi(s[:2])
	if err != nil {
		return time.Time{}, err
	}
	year := 2000 + yy
	if yy >= 57 { // TLE convention: 57–99 → 1957–1999
		year = 1900 + yy
	}
	doy, err := strconv.ParseFloat(s[2:], 64)
	if err != nil {
		return time.Time{}, err
	}
	jan1 := time.Date(year, 1, 1, 0, 0, 0, 0, time.UTC)
	// Day-of-year is 1-based.
	return jan1.Add(time.Duration((doy - 1) * 24 * float64(time.Hour))), nil
}

// parseTLEExp parses the TLE "exponential" notation like " 66816-4"
// (mantissa with implied decimal point, exponent), used for BSTAR.
func parseTLEExp(s string) (float64, error) {
	s = strings.TrimSpace(s)
	if s == "" || s == "00000-0" || s == "00000+0" {
		return 0, nil
	}
	sign := 1.0
	if s[0] == '-' {
		sign = -1
		s = s[1:]
	} else if s[0] == '+' {
		s = s[1:]
	}
	// Split mantissa and exponent: the exponent is the trailing signed digit.
	expSign := 1
	idx := strings.LastIndexAny(s, "+-")
	if idx <= 0 {
		return 0, fmt.Errorf("bad exp field %q", s)
	}
	if s[idx] == '-' {
		expSign = -1
	}
	mant, err := strconv.ParseFloat("0."+s[:idx], 64)
	if err != nil {
		return 0, err
	}
	exp, err := strconv.Atoi(s[idx+1:])
	if err != nil {
		return 0, err
	}
	return sign * mant * math.Pow(10, float64(expSign*exp)), nil
}

// Elements converts the TLE's Brouwer mean elements to an osculating-ish
// Keplerian element set suitable for the two-body/J2 propagators. The
// conversion recovers the semi-major axis from the mean motion.
func (t TLE) Elements() Elements {
	nRadS := t.MeanMotion / 60
	a := math.Cbrt(EarthMuKm3S2 / (nRadS * nRadS))
	return Elements{
		Epoch:          t.Epoch,
		SemiMajorKm:    a,
		Eccentricity:   t.Eccentricity,
		InclinationRad: t.Inclination,
		RAANRad:        t.RAAN,
		ArgPerigeeRad:  t.ArgPerigee,
		MeanAnomalyRad: t.MeanAnomaly,
	}
}
