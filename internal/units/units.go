// Package units provides typed physical quantities used throughout the
// space-microdatacenter models: data rates, data sizes, power, energy,
// lengths, angles, frequencies, and money.
//
// Each quantity is a float64 in a fixed SI base unit (bits, bits/s, watts,
// joules, meters, radians, hertz, USD). The types exist to make interfaces
// self-documenting and to prevent unit mix-ups (e.g. passing a bandwidth
// where a data rate is expected); arithmetic stays ordinary float math.
package units

import (
	"fmt"
	"math"
)

// DataSize is an amount of data in bits.
type DataSize float64

// Data size units.
const (
	Bit      DataSize = 1
	Byte     DataSize = 8
	Kilobit  DataSize = 1e3
	Megabit  DataSize = 1e6
	Gigabit  DataSize = 1e9
	Terabit  DataSize = 1e12
	Petabit  DataSize = 1e15
	Kilobyte DataSize = 8e3
	Megabyte DataSize = 8e6
	Gigabyte DataSize = 8e9
	Terabyte DataSize = 8e12
)

// Bits returns the size in bits.
func (s DataSize) Bits() float64 { return float64(s) }

// Bytes returns the size in bytes.
func (s DataSize) Bytes() float64 { return float64(s) / 8 }

// Over returns the constant data rate that transmits s in duration sec.
func (s DataSize) Over(sec float64) DataRate {
	if sec == 0 {
		return DataRate(math.Inf(1))
	}
	return DataRate(float64(s) / sec)
}

// String formats the size with a binary-free SI prefix, e.g. "199.1 Mbit".
func (s DataSize) String() string {
	return siFormat(float64(s), "bit")
}

// DataRate is a throughput in bits per second.
type DataRate float64

// Data rate units.
const (
	BitPerSecond  DataRate = 1
	Kbps          DataRate = 1e3
	Mbps          DataRate = 1e6
	Gbps          DataRate = 1e9
	Tbps          DataRate = 1e12
	Pbps          DataRate = 1e15
	BytePerSecond DataRate = 8
)

// BitsPerSecond returns the rate in bit/s.
func (r DataRate) BitsPerSecond() float64 { return float64(r) }

// Transmit returns the time in seconds needed to move size at this rate.
func (r DataRate) Transmit(size DataSize) float64 {
	if r == 0 {
		return math.Inf(1)
	}
	return float64(size) / float64(r)
}

// Volume returns the amount of data moved at this rate over sec seconds.
func (r DataRate) Volume(sec float64) DataSize {
	return DataSize(float64(r) * sec)
}

// String formats the rate with an SI prefix, e.g. "220.0 Mbit/s".
func (r DataRate) String() string {
	return siFormat(float64(r), "bit/s")
}

// Power is in watts.
type Power float64

// Power units.
const (
	Watt      Power = 1
	Milliwatt Power = 1e-3
	Kilowatt  Power = 1e3
	Megawatt  Power = 1e6
)

// ForDuration returns the energy consumed by running at p for sec seconds.
func (p Power) ForDuration(sec float64) Energy {
	return Energy(float64(p) * sec)
}

// String formats the power with an SI prefix, e.g. "4.0 kW".
func (p Power) String() string { return siFormat(float64(p), "W") }

// Energy is in joules.
type Energy float64

// Energy units.
const (
	Joule        Energy = 1
	Kilojoule    Energy = 1e3
	WattHour     Energy = 3600
	KilowattHour Energy = 3.6e6
)

// Joules returns the energy in joules.
func (e Energy) Joules() float64 { return float64(e) }

// String formats the energy with an SI prefix, e.g. "3.6 MJ".
func (e Energy) String() string { return siFormat(float64(e), "J") }

// Length is in meters.
type Length float64

// Length units.
const (
	Meter      Length = 1
	Centimeter Length = 0.01
	Kilometer  Length = 1e3
)

// Meters returns the length in meters.
func (l Length) Meters() float64 { return float64(l) }

// String formats lengths ≥ 1 km in km, sub-meter lengths in cm, else m.
func (l Length) String() string {
	v := float64(l)
	switch {
	case math.Abs(v) >= 1e3:
		return fmt.Sprintf("%.4g km", v/1e3)
	case math.Abs(v) < 1 && v != 0:
		return fmt.Sprintf("%.4g cm", v*100)
	default:
		return fmt.Sprintf("%.4g m", v)
	}
}

// Area is in square meters.
type Area float64

// Area units.
const (
	SquareMeter     Area = 1
	SquareKilometer Area = 1e6
)

// Angle is in radians.
type Angle float64

// Angle units.
const (
	Radian Angle = 1
	Degree Angle = math.Pi / 180
)

// Radians returns the angle in radians.
func (a Angle) Radians() float64 { return float64(a) }

// Degrees returns the angle in degrees.
func (a Angle) Degrees() float64 { return float64(a) * 180 / math.Pi }

// Normalize returns the angle wrapped into [0, 2π).
func (a Angle) Normalize() Angle {
	const twoPi = 2 * math.Pi
	v := math.Mod(float64(a), twoPi)
	if v < 0 {
		v += twoPi
	}
	return Angle(v)
}

// String formats the angle in degrees.
func (a Angle) String() string { return fmt.Sprintf("%.4g°", a.Degrees()) }

// Frequency is in hertz.
type Frequency float64

// Frequency units.
const (
	Hertz     Frequency = 1
	Kilohertz Frequency = 1e3
	Megahertz Frequency = 1e6
	Gigahertz Frequency = 1e9
	Terahertz Frequency = 1e12
)

// Wavelength returns the free-space wavelength for this frequency.
func (f Frequency) Wavelength() Length {
	const c = 299792458.0 // speed of light, m/s
	if f == 0 {
		return Length(math.Inf(1))
	}
	return Length(c / float64(f))
}

// String formats the frequency with an SI prefix, e.g. "8.2 GHz".
func (f Frequency) String() string { return siFormat(float64(f), "Hz") }

// Money is in US dollars.
type Money float64

// Money units.
const (
	Dollar  Money = 1
	Million Money = 1e6
	Billion Money = 1e9
)

// String formats money, e.g. "$3.2M".
func (m Money) String() string {
	v := float64(m)
	abs := math.Abs(v)
	switch {
	case abs >= 1e9:
		return fmt.Sprintf("$%.3gB", v/1e9)
	case abs >= 1e6:
		return fmt.Sprintf("$%.3gM", v/1e6)
	case abs >= 1e3:
		return fmt.Sprintf("$%.3gk", v/1e3)
	default:
		return fmt.Sprintf("$%.2f", v)
	}
}

// siPrefixes maps power-of-1000 exponents to SI prefixes.
var siPrefixes = map[int]string{
	-4: "p", -3: "n", -2: "µ", -1: "m",
	0: "", 1: "k", 2: "M", 3: "G", 4: "T", 5: "P", 6: "E",
}

// siFormat renders v with an SI prefix and the given unit suffix.
func siFormat(v float64, unit string) string {
	if v == 0 {
		return "0 " + unit
	}
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return fmt.Sprintf("%g %s", v, unit)
	}
	exp := int(math.Floor(math.Log10(math.Abs(v)) / 3))
	if exp < -4 {
		exp = -4
	}
	if exp > 6 {
		exp = 6
	}
	scaled := v / math.Pow(1000, float64(exp))
	return fmt.Sprintf("%.4g %s%s", scaled, siPrefixes[exp], unit)
}
