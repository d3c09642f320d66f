package units

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b))
}

func TestDataSizeConversions(t *testing.T) {
	if got := float64(2 * Megabyte); got != 16e6 {
		t.Errorf("2 MB = %v bits, want 16e6", got)
	}
	if got := 16 * Megabit / Byte; got != 2e6 {
		t.Errorf("16 Mbit = %v bytes, want 2e6", got)
	}
}

// TestDataSizeOver checks DataRate's Volume and Transmit against Over, the
// rate that moves a size in a given time.
func TestDataSizeOver(t *testing.T) {
	size := 300 * Megabit
	r := size.Over(1.5)
	if got := float64(r); got != 200e6 {
		t.Errorf("300 Mbit over 1.5 s = %v bit/s, want 200e6", got)
	}
	if got := r.Volume(1.5); got != size {
		t.Errorf("%v for 1.5 s moves %v, want %v", r, got, size)
	}
	if got := r.Transmit(size); got != 1.5 {
		t.Errorf("%v takes %v s at %v, want 1.5", size, got, r)
	}
	if !math.IsInf(float64((1 * Gigabit).Over(0)), 1) {
		t.Error("size over zero seconds should be +Inf rate")
	}
}

func TestDataRateTransmitRoundTrip(t *testing.T) {
	f := func(bits, rate float64) bool {
		bits = math.Abs(bits)
		rate = math.Abs(rate) + 1 // avoid zero rate
		size := DataSize(bits)
		r := DataRate(rate)
		sec := r.Transmit(size)
		back := r.Volume(sec)
		return almostEqual(float64(back), bits, 1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDataRateTransmitZero(t *testing.T) {
	if !math.IsInf(DataRate(0).Transmit(Gigabit), 1) {
		t.Error("zero rate should take infinite time")
	}
}

func TestPowerEnergy(t *testing.T) {
	e := (2 * Kilowatt).ForDuration(3600)
	if got := float64(e); got != 7.2e6 {
		t.Errorf("2 kW for 1 h = %v J, want 7.2e6", got)
	}
	if got := float64(2 * KilowattHour); got != 7.2e6 {
		t.Errorf("2 kWh = %v J, want 7.2e6", got)
	}
}

func TestAngleConversions(t *testing.T) {
	if got := float64(90 * Degree); !almostEqual(got, math.Pi/2, 1e-15) {
		t.Errorf("90° = %v rad, want π/2", got)
	}
	if got := Angle(math.Pi).String(); got != "180°" {
		t.Errorf("π rad = %q, want 180°", got)
	}
}

func TestLengthString(t *testing.T) {
	cases := []struct {
		in   Length
		want string
	}{
		{550 * Kilometer, "550 km"},
		{30 * Centimeter, "30 cm"},
		{3 * Meter, "3 m"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("(%v m).String() = %q, want %q", float64(c.in), got, c.want)
		}
	}
}

func TestSIFormat(t *testing.T) {
	cases := []struct {
		rate DataRate
		want string
	}{
		{220 * Mbps, "220 Mbit/s"},
		{1 * Gbps, "1 Gbit/s"},
		{0, "0 bit/s"},
		{2.5 * Tbps, "2.5 Tbit/s"},
	}
	for _, c := range cases {
		if got := c.rate.String(); got != c.want {
			t.Errorf("%v.String() = %q, want %q", float64(c.rate), got, c.want)
		}
	}
}

func TestMoneyString(t *testing.T) {
	cases := []struct {
		in   Money
		want string
	}{
		{3, "$3.00"},
		{4500, "$4.5k"},
		{3.2 * Million, "$3.2M"},
		{1.5 * Billion, "$1.5B"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Money(%v).String() = %q, want %q", float64(c.in), got, c.want)
		}
	}
}

func TestPowerString(t *testing.T) {
	if got := (4 * Kilowatt).String(); got != "4 kW" {
		t.Errorf("4 kW formats as %q", got)
	}
}

func TestSIFormatExtremes(t *testing.T) {
	// Values beyond the prefix table must not panic and must stay finite.
	huge := DataRate(1e30)
	if s := huge.String(); s == "" {
		t.Error("huge rate formatted empty")
	}
	tiny := DataRate(1e-30)
	if s := tiny.String(); s == "" {
		t.Error("tiny rate formatted empty")
	}
	inf := DataRate(math.Inf(1))
	if s := inf.String(); s == "" {
		t.Error("inf rate formatted empty")
	}
}
