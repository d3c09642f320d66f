// Go may fuse a multiply and an add into one FMA instruction on targets
// that have it (arm64, ppc64le, s390x, and amd64 from GOAMD64=v3 up), which
// changes float results in the last bit. The digests below were recorded on
// plain amd64, so the file only builds there.

//go:build amd64 && !amd64.v3

package netsim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"spacedc/internal/isl"
	"spacedc/internal/obs"
	"spacedc/internal/units"
)

// pinDigest hashes v's %+v rendering. Float fields print in their shortest
// round-trip form, so equal digests mean bit-identical values.
func pinDigest(v any) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", v)))
	return hex.EncodeToString(sum[:])
}

// pinScenarios is the scenario set behind TestNetsimOutputsPinned: every
// optimizer topology family at the evaluator's load and step, with and
// without link outage, plus the fault regimes, the constellation-scale
// grid, a shell stack and the event scenarios.
func pinScenarios(t *testing.T) []Scenario {
	t.Helper()
	var scs []Scenario
	families := []struct {
		name             string
		k, split, geoSks int
	}{
		{"ring", 2, 1, 0}, {"k4x1", 4, 1, 0}, {"k4x2", 4, 2, 0}, {"k6x2", 6, 2, 0}, {"geo3", 0, 0, 3},
	}
	for _, f := range families {
		for _, sats := range []int{8, 12, 16, 24} {
			ts, err := DesignTopology(1, sats, 550, f.k, f.split, f.geoSks, isl.Optical10G)
			if err != nil {
				continue // k6x2 needs 12 satellites
			}
			for _, outage := range []float64{0, 0.05} {
				scs = append(scs, Scenario{
					Name:     fmt.Sprintf("%s-%d-outage%v", f.name, sats, outage),
					Topology: ts,
					PerSat:   1.5 * units.Gbps,
					Faults:   FaultConfig{LinkOutage: outage, LinkMTTRSec: 5},
					StepSec:  0.5, EpochSec: 5, DurationSec: 10,
					Seed: int64(sats),
				})
			}
		}
	}

	// A short RTO and three attempts make the outage ring abandon
	// segments whose late copies still arrive.
	rfOutage := ringScenario(8)
	rfOutage.Name = "rf-ring-heavy-outage"
	rfOutage.Faults = FaultConfig{LinkOutage: 0.2, LinkMTTRSec: 5}
	rfOutage.Transport = TransportConfig{RTOSec: 1, Backoff: 2, MaxAttempts: 3}
	rfOutage.DurationSec, rfOutage.WarmupSec = 120, 20

	rfSats := ringScenario(8)
	rfSats.Name = "rf-ring-sat-failures"
	rfSats.Faults = FaultConfig{LinkOutage: 0.2, LinkMTTRSec: 5, SatMTBFSec: 60, SatMTTRSec: 30}
	rfSats.DurationSec, rfSats.WarmupSec, rfSats.EpochSec = 120, 20, 30

	// Two SµDCs per plane keep one sink out of the shadow arc.
	eclipse := ringScenario(16)
	eclipse.Name = "k4x2-eclipse"
	eclipse.Topology.Cluster = isl.Topology{K: 4, Split: 2}
	eclipse.Topology.Tech = isl.Optical10G
	eclipse.Faults = FaultConfig{EclipseOutage: true}
	eclipse.DurationSec, eclipse.WarmupSec = 120, 20

	grid := bigGridScenario(1, false)
	grid.DurationSec, grid.WarmupSec = 20, 5

	stack := Scenario{
		Name:     "2shell-nearest",
		Topology: twoShellSpec(InterShellNearest),
		PerSat:   500 * units.Mbps,
		StepSec:  0.1, EpochSec: 20, DurationSec: 60, WarmupSec: 10,
		Faults: FaultConfig{
			LinkOutage: 0.1, LinkMTTRSec: 10,
			SatMTBFSec: 120, SatMTTRSec: 30,
		},
		Seed: 9,
	}
	scs = append(scs, rfOutage, rfSats, eclipse, grid, stack)
	return append(scs, eventScenarios(t)...)
}

// eventScenarios are the pins for the event-driven step: shadow arcs
// whose edges pass several satellites per step, eclipses in several
// shells and on a GEO star, and sources whose credit carries across
// satellite failures or grows by a fractional number of bits a step.
// Two SµDCs per plane keep one sink out of the shadow arc.
func eventScenarios(t *testing.T) []Scenario {
	t.Helper()
	// 300 satellites at a 40 s step over one 550 km orbit: each arc edge
	// passes about two satellites a step. The long RTO keeps multi-step
	// hops from timing out.
	grid := Scenario{
		Name: "eclipse-grid-coarse",
		Topology: TopologySpec{
			Kind: ClusterTopology, Sats: 300, Cluster: isl.Topology{K: 4, Split: 2}, Tech: isl.Optical10G,
		},
		PerSat:    units.Mbps / 10,
		Faults:    FaultConfig{EclipseOutage: true},
		Transport: TransportConfig{RTOSec: 600},
		StepSec:   40, EpochSec: 400, DurationSec: 5760, WarmupSec: 400,
		Seed: 3,
	}

	stack, err := DesignShells([]ShellSpec{
		{Sats: 40, Cluster: isl.Topology{K: 4, Split: 2}, AltKm: 550},
		{Sats: 48, Cluster: isl.Topology{K: 4, Split: 2}, AltKm: 900},
		{Sats: 56, Cluster: isl.Topology{K: 6, Split: 2}, AltKm: 1300},
	}, InterShellNearest, 8, isl.Optical10G)
	if err != nil {
		t.Fatal(err)
	}
	stack3 := Scenario{
		Name:     "3shell-eclipse-sat-failures",
		Topology: stack,
		PerSat:   5 * units.Mbps,
		Faults:   FaultConfig{EclipseOutage: true, SatMTBFSec: 300, SatMTTRSec: 60},
		StepSec:  0.5, EpochSec: 60, DurationSec: 600, WarmupSec: 60,
		Seed: 5,
	}

	geo, err := DesignTopology(1, 120, 550, 0, 0, 3, isl.Optical10G)
	if err != nil {
		t.Fatal(err)
	}
	geoEcl := Scenario{
		Name:     "geo3-eclipse",
		Topology: geo,
		PerSat:   units.Mbps,
		Faults:   FaultConfig{EclipseOutage: true, LinkOutage: 0.02, LinkMTTRSec: 20},
		StepSec:  5, EpochSec: 600, DurationSec: 5760, WarmupSec: 300,
		Seed: 11,
	}

	// One 1e6-bit segment per 100 steps, so most emissions are due after
	// a down period.
	lowRate := ringScenario(8)
	lowRate.Name = "ring-low-rate-sat-failures"
	lowRate.PerSat = units.Mbps / 10
	lowRate.Faults = FaultConfig{SatMTBFSec: 40, SatMTTRSec: 25}
	lowRate.DurationSec, lowRate.WarmupSec = 600, 30

	// 3.3 Mbit/s × 0.07 s is not a whole number of bits.
	frac := ringScenario(12)
	frac.Name = "ring-fractional-credit"
	frac.PerSat = 3.3 * units.Mbps
	frac.SegmentBits = 1234567
	frac.StepSec = 0.07
	frac.Faults = FaultConfig{LinkOutage: 0.05, LinkMTTRSec: 5, SatMTBFSec: 30, SatMTTRSec: 10}
	frac.DurationSec, frac.WarmupSec = 120, 10

	return []Scenario{grid, stack3, geoEcl, lowRate, frac}
}

// pinnedNetsim holds, per scenario, the digest of the bare Result and of
// the instrumented Result followed by its registry Snapshot.
var pinnedNetsim = map[string][2]string{
	"ring-8-outage0":       {"190f5646c588e8832c2e9106ff5f061ae22d3053623ff118807f5b4e975fc4ad", "753d497ae82d801321c831ec7b834a55db455cd8598af5038d7a72c4c3bff23f"},
	"ring-8-outage0.05":    {"d7358792bf4443c132220ecc8afd297188150c1b75c89a510f4157bff9b1a2e9", "41fafe019eb6fe1175dc8d72a47985b8f181cc1af61f1f55ba332069a4a11320"},
	"ring-12-outage0":      {"2cfa010b2a6f3192e31cacd10b051bf4c325630ef81de4419614cdb71f297cfb", "1be5228534d72990d3837d1b1b06fdba8befb1a12473a72d6abe978b65d3b3d1"},
	"ring-12-outage0.05":   {"9d653c6ff1bb56efe7ddbd4aa81e3db1fa84cb8f22850d6da1fd242bfbd6e2ce", "39a16b2c910b25d8e427185a91fcd5cd6aa9563889de11a5ff0b59b76ff084df"},
	"ring-16-outage0":      {"88dc65f21a3ca569a562decd8696510ae2688effadc7ef5639c113c609119db3", "67ea86f6280b120709edeb8ff33b9f7d530ea2847541added32e96235b1a5945"},
	"ring-16-outage0.05":   {"aed7b82ab9f478333566380323a9f03a40253533211bbd7ea43cbc3c9404a325", "2e9fc0106bdd3ff4a2c67f0ff74fe98011094956f9ea14d4e77ae3ce8853d64c"},
	"ring-24-outage0":      {"f56a6cd3e735645af61625c846facc69d09087108bb0f640f706ee04d3fdc895", "3396650d54f13ead0413b1d9a6b06ef2774ccbf095bc87107e3362ac6b74cebc"},
	"ring-24-outage0.05":   {"04427836946af4d028b674dc814c54c286aa8fda3ec91f7dbadab658ca7f7643", "142b50f537bc67860bfcc0aa5bf42c9d0b453920b834006094431cab47fca525"},
	"k4x1-8-outage0":       {"da47cdd5f54b4091acee1c90f1ae4cb36cf54e19fbdd3a8b6af17f38c1a6e9d6", "7808fbb3ec0748139ee59f1982a0870a50eb910c0a5e41ee6b7aa2e7951cc524"},
	"k4x1-8-outage0.05":    {"06a3d57d0946b70c157ab073b9bbebdf6ee7ea3cb9d276d426fd73f5682d702e", "d79dfd538dec8e4bf350cb63794de6adbee744c67c7091c244cd8fbf0fdde5e7"},
	"k4x1-12-outage0":      {"5dc734bd3a7e5bd42d87a41352ac965602b1faee7ca5ff5636a4d7d951c0796d", "2aad4074899fb106507ee6de05b6e5c6d721acf8f980556ebc2d6f2b709bb115"},
	"k4x1-12-outage0.05":   {"f448846f9830fa0a7b7629425f090b8f5db507cad0b79eb328b0ef4a9ed4367a", "ddc5bcd1d14b2c67293828fb206fb7c6c17d31cfb316b99629ec9b3d13f15209"},
	"k4x1-16-outage0":      {"8ac732a2ecef709844cdece00a3ccbf189360054b6adf6e5ae09aa2e108e4f18", "50565b9df9abbfe88a9401c2b78013f75758ef7de649761fc8871fbae0efb8c2"},
	"k4x1-16-outage0.05":   {"b3cbd89c0d302023bda061cc6f9ee49b84439cb15b0ffc77eca5e6e881e1d99d", "3ab0fd8e85ba44aacdc55a5b20559110eda19643fe042d220b04d9d898fe0bbb"},
	"k4x1-24-outage0":      {"7e563e35a83e3e3bef2ca5df588e753c9bcf889b96a66b1e728621a30d7120eb", "c2f2e3546402126604aefc2db9296aedde2c01f88d9ac3de52f8133aeea15ac0"},
	"k4x1-24-outage0.05":   {"f774da65bec3c1fe26fc946733c7942c490b0f722a570a0e4815aebf7884328e", "ce6dd22aa71545a1d8cfb77c4657603b9a3eb9edd1416e78715a1825ef15fb94"},
	"k4x2-8-outage0":       {"27defb93f4df24bf7d909e52f343fd4f40a77b786f021a50b6641bc1b174a93a", "3b39e991f2c3385d33ff7e0d2dd099977917b2073dfd034c5342a59e3b41e124"},
	"k4x2-8-outage0.05":    {"70a1a037cd017d05ab9936fa7eb2160f2f042d91c66ba737c41de235619398c7", "f29c8706ffca9fca42338e2a4272f0f8d744da162f7ffc987428fa2cf7b0c310"},
	"k4x2-12-outage0":      {"bec9548945254a165ae378260e2e5250e56fa8a4a77a4f8ee7211ec2d3c5df41", "2611f91d570b8ff699f4780240313b30dab2950d25c37828ecc4ee5f56544806"},
	"k4x2-12-outage0.05":   {"161edbd898a06b30ef48e6978ba1dbe5cd439f3bbff5b1107cbc8a0136408872", "b7fe174643a0c9cdc6821d205f813896388e7b2249b3fdf89a5743950662a72e"},
	"k4x2-16-outage0":      {"9cae0afa2e68dab72988f9094b2bb76a91a56642fed68d9ab797b0ee17096972", "725b45887c2260f337c7fcc0b423e6c64e13daa2cd882167be26bcb07e0cb6a2"},
	"k4x2-16-outage0.05":   {"b9e2e7fc52a4226b7370a08337af96adf3363bcaf7507f6121bb59fbe36be307", "e590150d2ed9adcb8a54914e610c457d990386615cc9e7c53e886eb90db8dd99"},
	"k4x2-24-outage0":      {"3dc8f41a85e91945b92ccc35bd5034c59ee27fc9f34e3e7cecf6b163b4bd477c", "1afbb7682e3417d150b7a65c4d81ac7167a3b769ccf03e4940284b4c59c99ba0"},
	"k4x2-24-outage0.05":   {"78e8aeb1fd84ff5c8deac8184939c865ca3d8779578483d4665718aea709080a", "08d393488aa17b7d61792d204bc4459fc98f77b72743173d83a8261f0ad9d421"},
	"k6x2-12-outage0":      {"9c0897eadd557b6b57361c0b62e40a2a09d4cbf149fb0ae1e9231e9cd880d5a8", "3c8eeb40fb3a4c750412c92a9395b28ac86dcb4025091cdf4b47a19ca6238524"},
	"k6x2-12-outage0.05":   {"cbd9979a29c6020fddfb4ec35afc980342db6552bf9961afaaa4205d2d1ca3e0", "2c3c707adb902c57546dc6e0328d59f95650247e9c16b3a5992f2b954879b360"},
	"k6x2-16-outage0":      {"a23fc2e3b6a104fc9aaa516f23a32854b2ac1d415ae1bfa94ca41b3f52cb59ff", "75671dd068e53db96805c1d54125a614b9ce355eb244167afa9f0491d61087e2"},
	"k6x2-16-outage0.05":   {"bd7f62ce07ed3426fb4ed92d6ed28cbe71dcf35a990d8f8345751a0b2644fcd5", "41299eb225e90d95808764edf6b1be5f171ab6f8a0b27edafb9bb1e6592a3a68"},
	"k6x2-24-outage0":      {"71ebc670180fa6eed2f3a69dbeef47f86bf569df3ffb7db1137409e16df252e2", "de1bdaa9bafa96961e2b60f1e8319e82da6e35400ecb25b4dd059d712ef08626"},
	"k6x2-24-outage0.05":   {"f75b1633074cc08461a2ce733af59a03c2e069896965bb3a0ae8f3870af34d3c", "bc0c550cb0126cb5d25c443d876b9fe3e5ea9fc4ac940efbbb7aaf8cca1fa9f4"},
	"geo3-8-outage0":       {"f20fd8b169c08b4ee60da9d5af3ac2016b137c8f19e7c90032ef3f3d7a6f5d8d", "2e7da37220fcae09ce2c95b6eb8663cba00666db58dd05e7f736921222d3ec1d"},
	"geo3-8-outage0.05":    {"77ebe8a1bb80d5ef90350c834132ecb2b85acf2ecd2cb0179290ad46e747e93f", "c8449d413a7e5b4c8636dc41de55efe410b14d015987d2432f9d01b90ff09866"},
	"geo3-12-outage0":      {"10989029b9cc2411f8643da4af2042f260795581409728c6ee4ecea149a19087", "b851cebd7b538e5a3a0de13e14f78eabb032c847c118078257551b4773da4b9f"},
	"geo3-12-outage0.05":   {"0294e0ca6b4f9cd3af0d648b3789aa76151ab272a3d4767837f5d672fb041b80", "66addd5cddec6de2e22bab4b9f04a4edf6699b8cad2608b9e641d4cb827abba8"},
	"geo3-16-outage0":      {"cdb6536758b753ca3d0bad1f6701192bd8fd8e7c8206b4978b53d571d310a3d0", "7d86bd189646cf39f6d089e9953175c5cee1b2567ae04a307be5ab565e532e71"},
	"geo3-16-outage0.05":   {"7e0290adf05d1e759d06d222ed6f72611b9f256b961ac71c793733a646047d00", "b55170b92dbf720d8c4fb9b179e99da51cef940f199eebf42c23dc382df6233a"},
	"geo3-24-outage0":      {"cf733f87b0342548f6140d2e5b1507cef1712f477d45ea6f9195f795d93d81ba", "b9c065bae45826eec1b678edbf3ca5ee807b914c387fad79c43a779a235fb986"},
	"geo3-24-outage0.05":   {"7f384a888e2cb5138626f25e449c72667357453daeb58570c199a57c6bedf8f1", "7416496adcadc9fdd2243eba61b0d4443d0d80c8b47e9b64f46bb53c4d88a863"},
	"rf-ring-heavy-outage": {"1c1ce7c6aee33a1f79b6cf2d4e540fbd3cf926c16ae81a6edb13d90e32647589", "8867d78f2b3f82686f5f5742b9984236c684b66d2826988e889008a793d21af4"},
	"rf-ring-sat-failures": {"8952fbb90f7e0d25c996d65e7b12e565e16c5035c3a57c1d5970c8e50ea73834", "d455bc5128f7a98fd205627a59ba0f540eb161a264c138d0b21ba0aea89f35bb"},
	"k4x2-eclipse":         {"ee9ef54e372c4dd364dbfa60e8c84469a31522f2999d09b72b69aa733bf5838f", "4cf54bb50a36a5d549e8861579932aa2423b46d3747b9505dac13bbaf8680d1f"},
	"big-grid":             {"308c481e193267db0c078be40009fb72783b3efe1839774e279f8e14da6fcbf9", "db17a141a541bb2e68673f8b5089ceb0493152f351d1c7220fb57760dca9b8fc"},
	"2shell-nearest":       {"462ff20df8bb77300d1e103a0f4e12f0d711739eb31e6fb23941de7c953b46b2", "a87016d172d6af564997fad6fd8bab3652d01e280ef3578a6698b82053542527"},

	"eclipse-grid-coarse":         {"3f09c7c54f5ca7827581759cdf2a0c66af084b28e53a1c48f06d9900343aee9f", "d660b4586b77194ab475c1c046ecd33753661b755c0aeb2cee89d5018b2033ad"},
	"3shell-eclipse-sat-failures": {"e08bf355e027c897aacb5368c552aff29f2f0efa9dbaab0eedd5f6cdb9712710", "512f0472277f6839325eed7ba033acd56af8e827f830769c026067fbef4932b8"},
	"geo3-eclipse":                {"9397887c1c8399a7694bf388f462588c10a3eec495f62e63fa217b62c73f4d8c", "f3aad3a65c811a2e27f04b854514152d2fbc34a816bf300bc7d2f0becf4d1dc4"},
	"ring-low-rate-sat-failures":  {"439584523d3d3441d02fd509ea2ae41c99b87eb760bb4dae811f63a67737b179", "935be95eb0f688abeebf31b5289dacb3e9ae107581fc587d23a7b0194824ae40"},
	"ring-fractional-credit":      {"0df4c13c0a3c7b77c7711e633b0a46a725f5383dfbfcf1c1d0eaba4c9146f462", "633199c22af8600251916b0df69b97d2d03cd5965278f20758e69af4195296fb"},
}

// TestNetsimOutputsPinned compares every pin scenario's Result, bare and
// instrumented, with recorded digests. They were first recorded before the
// segment-run engine, then re-recorded once, when the two epoch-rebuild
// fields left Result, after every rendering matched the previous one with
// those fields cut out. The event scenarios' digests were recorded on the
// engine that still rescanned the shadow arc and walked every source each
// step. The 27 scenarios with a fault clock were re-recorded when the
// clocks moved to a PCG stream, after a field-by-field diff against the
// previous renderings; the 21 without one kept their digests. A refactor that shifts every run the same way
// passes the repeat and worker-count determinism tests; it cannot pass
// this one.
func TestNetsimOutputsPinned(t *testing.T) {
	scs := pinScenarios(t)
	if len(scs) != len(pinnedNetsim) {
		t.Errorf("%d pin scenarios, %d recorded digests", len(scs), len(pinnedNetsim))
	}
	for _, sc := range scs {
		bare, err := Run(sc)
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		reg := obs.New()
		sc.Obs = reg
		instr, err := Run(sc)
		if err != nil {
			t.Fatalf("%s instrumented: %v", sc.Name, err)
		}
		got := [2]string{pinDigest(bare), pinDigest([]any{instr, reg.Snapshot()})}
		if want := pinnedNetsim[sc.Name]; got != want {
			t.Errorf("%q: {%q, %q}, want %q", sc.Name, got[0], got[1], want)
		}
	}
}
