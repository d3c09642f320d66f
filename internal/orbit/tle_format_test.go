package orbit

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"spacedc/internal/vecmath"
)

// Format renders the TLE as a two-line element set (three lines when the
// TLE has a name), with valid checksums, parseable by ParseTLE.
func (t TLE) Format() string {
	deg := 180 / math.Pi
	l1 := fmt.Sprintf("1 %5sU 00000A   %s %s %s %s 0    0",
		padID(t.NoradID),
		formatTLEEpoch(t.Epoch),
		" .00000000", // ndot/2: not carried by this model
		formatTLEExp(0),
		formatTLEExp(t.BStar))
	l2 := fmt.Sprintf("2 %5s %8.4f %8.4f %s %8.4f %8.4f %11.8f    0",
		padID(t.NoradID),
		t.Inclination*deg,
		vecmath.WrapTwoPi(t.RAAN)*deg,
		formatTLEEcc(t.Eccentricity),
		vecmath.WrapTwoPi(t.ArgPerigee)*deg,
		vecmath.WrapTwoPi(t.MeanAnomaly)*deg,
		t.MeanMotion*1440/(2*math.Pi))
	out := appendChecksum(l1) + "\n" + appendChecksum(l2)
	if t.Name != "" {
		out = t.Name + "\n" + out
	}
	return out
}

// padID right-justifies a catalog number into 5 columns.
func padID(id string) string {
	if id == "" {
		id = "00000"
	}
	for len(id) < 5 {
		id = "0" + id
	}
	if len(id) > 5 {
		id = id[:5]
	}
	return id
}

// formatTLEEpoch renders the YYDDD.DDDDDDDD field.
func formatTLEEpoch(t time.Time) string {
	t = t.UTC()
	yy := t.Year() % 100
	jan1 := time.Date(t.Year(), 1, 1, 0, 0, 0, 0, time.UTC)
	doy := 1 + t.Sub(jan1).Hours()/24
	return fmt.Sprintf("%02d%012.8f", yy, doy)
}

// formatTLEEcc renders the implied-decimal eccentricity field.
func formatTLEEcc(e float64) string {
	v := int(math.Round(e * 1e7))
	if v < 0 {
		v = 0
	}
	if v > 9999999 {
		v = 9999999
	}
	return fmt.Sprintf("%07d", v)
}

// formatTLEExp renders the TLE exponential notation (" 66816-4" style).
func formatTLEExp(v float64) string {
	if v == 0 {
		return " 00000-0"
	}
	sign := " "
	if v < 0 {
		sign = "-"
		v = -v
	}
	exp := int(math.Floor(math.Log10(v))) + 1
	mant := v / math.Pow(10, float64(exp))
	digits := int(math.Round(mant * 1e5))
	if digits >= 1e5 {
		digits /= 10
		exp++
	}
	expSign := "+"
	if exp < 0 {
		expSign = "-"
		exp = -exp
	}
	return fmt.Sprintf("%s%05d%s%d", sign, digits, expSign, exp)
}

// appendChecksum pads a line to 68 columns and appends its checksum digit.
func appendChecksum(line string) string {
	for len(line) < 68 {
		line += " "
	}
	if len(line) > 68 {
		line = line[:68]
	}
	sum := 0
	for _, c := range line {
		switch {
		case c >= '0' && c <= '9':
			sum += int(c - '0')
		case c == '-':
			sum++
		}
	}
	return line + string(rune('0'+sum%10))
}

func sampleTLE() TLE {
	return TLE{
		Name:         "TESTSAT",
		NoradID:      "25544",
		Epoch:        time.Date(2026, 7, 1, 12, 0, 0, 0, time.UTC),
		BStar:        6.6816e-5,
		Inclination:  51.64 * math.Pi / 180,
		RAAN:         208.9163 * math.Pi / 180,
		Eccentricity: 0.0006703,
		ArgPerigee:   69.9862 * math.Pi / 180,
		MeanAnomaly:  25.2906 * math.Pi / 180,
		MeanMotion:   15.4956 * 2 * math.Pi / 1440,
	}
}

func TestFormatRoundTrip(t *testing.T) {
	orig := sampleTLE()
	text := orig.Format()
	back, err := ParseTLE(text)
	if err != nil {
		t.Fatalf("formatted TLE fails to parse: %v\n%s", err, text)
	}
	if back.Name != orig.Name || back.NoradID != orig.NoradID {
		t.Errorf("identity fields lost: %q %q", back.Name, back.NoradID)
	}
	deg := 180 / math.Pi
	closeEnough := func(name string, got, want, tolDeg float64) {
		if math.Abs(got-want)*deg > tolDeg {
			t.Errorf("%s = %v°, want %v°", name, got*deg, want*deg)
		}
	}
	closeEnough("inclination", back.Inclination, orig.Inclination, 1e-3)
	closeEnough("raan", back.RAAN, orig.RAAN, 1e-3)
	closeEnough("argp", back.ArgPerigee, orig.ArgPerigee, 1e-3)
	closeEnough("mean anomaly", back.MeanAnomaly, orig.MeanAnomaly, 1e-3)
	if math.Abs(back.Eccentricity-orig.Eccentricity) > 1e-7 {
		t.Errorf("eccentricity %v, want %v", back.Eccentricity, orig.Eccentricity)
	}
	if math.Abs(back.MeanMotion-orig.MeanMotion)/orig.MeanMotion > 1e-8 {
		t.Errorf("mean motion %v, want %v", back.MeanMotion, orig.MeanMotion)
	}
	if math.Abs(back.BStar-orig.BStar)/orig.BStar > 1e-4 {
		t.Errorf("bstar %v, want %v", back.BStar, orig.BStar)
	}
	if d := back.Epoch.Sub(orig.Epoch); d < -time.Second || d > time.Second {
		t.Errorf("epoch %v, want %v", back.Epoch, orig.Epoch)
	}
}

func TestFormatLineGeometry(t *testing.T) {
	text := sampleTLE().Format()
	lines := strings.Split(text, "\n")
	if len(lines) != 3 {
		t.Fatalf("named TLE should have 3 lines, got %d", len(lines))
	}
	for i, l := range lines[1:] {
		if len(l) != 69 {
			t.Errorf("line %d has %d columns, want 69: %q", i+1, len(l), l)
		}
		if err := verifyChecksum(l); err != nil {
			t.Errorf("line %d checksum: %v", i+1, err)
		}
	}
	// Unnamed TLEs emit two lines.
	un := sampleTLE()
	un.Name = ""
	if got := len(strings.Split(un.Format(), "\n")); got != 2 {
		t.Errorf("unnamed TLE has %d lines, want 2", got)
	}
}

func TestFormatRoundTripProperty(t *testing.T) {
	f := func(incRaw, raanRaw, eccRaw, mmRaw uint16) bool {
		orig := TLE{
			NoradID:      "00001",
			Epoch:        time.Date(2026, 3, 1, 6, 30, 0, 0, time.UTC),
			Inclination:  float64(incRaw%1800) / 10 * math.Pi / 180,
			RAAN:         float64(raanRaw%3600) / 10 * math.Pi / 180,
			Eccentricity: float64(eccRaw%9000) / 1e4,
			ArgPerigee:   float64(raanRaw%3599) / 10 * math.Pi / 180,
			MeanAnomaly:  float64(incRaw%3599) / 10 * math.Pi / 180,
			MeanMotion:   (1 + float64(mmRaw%15)) * 2 * math.Pi / 1440,
			BStar:        1e-5,
		}
		back, err := ParseTLE(orig.Format())
		if err != nil {
			return false
		}
		return math.Abs(back.Inclination-orig.Inclination) < 1e-5 &&
			math.Abs(back.Eccentricity-orig.Eccentricity) < 1e-6 &&
			math.Abs(back.MeanMotion-orig.MeanMotion) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFormatExpField(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{0, " 00000-0"},
		{6.6816e-5, " 66816-4"},
		{-6.6816e-5, "-66816-4"},
		{0.5, " 50000+0"},
	}
	for _, c := range cases {
		if got := formatTLEExp(c.in); got != c.want {
			t.Errorf("formatTLEExp(%v) = %q, want %q", c.in, got, c.want)
		}
	}
	// All exp-format outputs re-parse to the input.
	for _, v := range []float64{0, 1e-3, -2.5e-4, 6.6816e-5, 0.1} {
		got, err := parseTLEExp(formatTLEExp(v))
		if err != nil {
			t.Errorf("parse(format(%v)): %v", v, err)
			continue
		}
		if math.Abs(got-v) > 1e-5*math.Max(math.Abs(v), 1e-9)+1e-12 {
			t.Errorf("exp round trip %v → %v", v, got)
		}
	}
}

func TestFormatSGP4Usable(t *testing.T) {
	// A formatted TLE must initialize SGP4 and propagate sanely.
	tle := sampleTLE()
	back, err := ParseTLE(tle.Format())
	if err != nil {
		t.Fatal(err)
	}
	prop, err := NewSGP4(back)
	if err != nil {
		t.Fatal(err)
	}
	s, err := prop.PropagateMinutes(45)
	if err != nil {
		t.Fatal(err)
	}
	if alt := s.AltitudeKm(); alt < 300 || alt > 600 {
		t.Errorf("formatted ISS-like TLE gives altitude %v km", alt)
	}
}
