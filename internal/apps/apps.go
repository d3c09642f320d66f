// Package apps catalogs the ten Earth-observation applications the paper
// analyzes (Table 5): their kernels, imagery types, per-pixel computational
// complexity, and latency sensitivity. These applications are "memoryless" —
// each processes a single frame at a time — which is what makes them
// candidates for moving from the ground into space.
package apps

import "fmt"

// ImageryType is the sensor modality an application consumes.
type ImageryType int

// Imagery types used by the Table 5 applications.
const (
	RGB ImageryType = iota
	Hyperspectral
	SAR
)

// String names the imagery type.
func (it ImageryType) String() string {
	switch it {
	case RGB:
		return "RGB"
	case Hyperspectral:
		return "hyperspectral"
	case SAR:
		return "SAR"
	default:
		return "unknown"
	}
}

// ID is a short, stable identifier for an application (the paper's
// abbreviations: APP, CM, FD, AD, FQE, UED, PS, OSM, TM, LSC).
type ID string

// Application IDs, Table 5.
const (
	AirPollution     ID = "APP"
	CropMonitoring   ID = "CM"
	FloodDetection   ID = "FD"
	AircraftDetect   ID = "AD"
	ForageQuality    ID = "FQE"
	UrbanEmergency   ID = "UED"
	PanopticSeg      ID = "PS"
	OilSpill         ID = "OSM"
	TrafficMonitor   ID = "TM"
	LandSurfaceClust ID = "LSC"
)

// Application is one row of Table 5.
type Application struct {
	ID          ID
	Name        string
	Description string
	Imagery     ImageryType
	Kernel      string
	// FLOPsPerPixel is the per-pixel floating-point cost of the kernel.
	// The paper notes computational complexity scales linearly with pixel
	// count for these kernels, so total work = FLOPsPerPixel × pixels.
	FLOPsPerPixel float64
	Users         string
	// LatencySensitive marks applications (UED, FD, PS-backed alerting)
	// where detection delay matters; §9 argues the rest can trade latency
	// for energy efficiency on accelerator architectures.
	LatencySensitive bool
}

// All returns the ten Table 5 applications in the paper's order.
func All() []Application {
	return []Application{
		{AirPollution, "Air Pollution Prediction",
			"Predict air pollution levels using CNN", RGB,
			"Inception-ResNet", 3317, "NASA, CARB", false},
		{CropMonitoring, "Crop Monitoring",
			"Identify type and quality of crops", Hyperspectral,
			"Inception v3", 67113, "Ministry of Agriculture of China, ESA", false},
		{FloodDetection, "Flood Detection",
			"Identify floods and assess flood severity", RGB,
			"DenseNet", 178969, "GDACS, NASA", true},
		{AircraftDetect, "Aircraft Detection",
			"Identify stationary and moving aircraft using CNN", RGB,
			"Custom 4-layer CNN", 7387714, "Orbital Insights, militaries", false},
		{ForageQuality, "Forage Quality Estimation",
			"Estimate forage quality for agriculture and animal husbandry", RGB,
			"EfficientNet based", 8491, "USDA, UN", false},
		{UrbanEmergency, "Urban Emergency Detection",
			"Fire, traffic accident, building collapse detection", RGB,
			"MobileNet v3", 4484, "NASA, USDA", true},
		{PanopticSeg, "Panoptic Segmentation",
			"Simultaneous detection of countable objects and backgrounds", RGB,
			"Mask RCNN", 6874279, "Crop monitoring, urban classification, environmental monitoring", true},
		{OilSpill, "Oil Spill Monitoring",
			"Deep water environmental monitoring", Hyperspectral,
			"VGG19", 390625, "KSAT, NOAA, ESA", false},
		{TrafficMonitor, "Traffic Monitoring",
			"Detect moving vehicles via blue reflectance", RGB,
			"Custom DSP algo using channel ratios", 51, "DoT, ESA", false},
		{LandSurfaceClust, "Land Surface Clustering",
			"Unsupervised segmentation / land cover change detection", Hyperspectral,
			"K-Means (K=4)", 15984, "NASA, ESA", false},
	}
}

// ByID returns the application with the given ID.
func ByID(id ID) (Application, error) {
	for _, a := range All() {
		if a.ID == id {
			return a, nil
		}
	}
	return Application{}, fmt.Errorf("apps: unknown application %q", id)
}

// IDs returns all application IDs in Table 5 order.
func IDs() []ID {
	all := All()
	ids := make([]ID, len(all))
	for i, a := range all {
		ids[i] = a.ID
	}
	return ids
}

// ComplexitySpreadFactor returns the ratio between the most and least
// computationally expensive applications per pixel. The paper reports over
// 10⁵× between aircraft detection and traffic monitoring.
func ComplexitySpreadFactor() float64 {
	min, max := 0.0, 0.0
	for i, a := range All() {
		if i == 0 {
			min, max = a.FLOPsPerPixel, a.FLOPsPerPixel
			continue
		}
		if a.FLOPsPerPixel < min {
			min = a.FLOPsPerPixel
		}
		if a.FLOPsPerPixel > max {
			max = a.FLOPsPerPixel
		}
	}
	return max / min
}
