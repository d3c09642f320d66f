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
	"ring-8-outage0.05":    {"86eb27378726eca66a11570733decf7c9089f225b47e3e40df0b1966db97f88d", "b71b357109d24c989cb928cffb5bc3aed59b929e472a4ded924e19ed5794be1c"},
	"ring-12-outage0":      {"2cfa010b2a6f3192e31cacd10b051bf4c325630ef81de4419614cdb71f297cfb", "1be5228534d72990d3837d1b1b06fdba8befb1a12473a72d6abe978b65d3b3d1"},
	"ring-12-outage0.05":   {"e9193de0bd1e7cf6fd4f30c92c328f57ae5c0720ef6f45d6e3ee0ef649f8d8d8", "61053327b290889f15d020be753cd47abc4cadb9f4c6803a26fbbf35b7d3634c"},
	"ring-16-outage0":      {"88dc65f21a3ca569a562decd8696510ae2688effadc7ef5639c113c609119db3", "67ea86f6280b120709edeb8ff33b9f7d530ea2847541added32e96235b1a5945"},
	"ring-16-outage0.05":   {"c9e7c78d64c26611aec7aa71e6669db4ec10618a80486fff44311e2a7ee400fc", "a65862c75de7ed2e7107a31d5843520dd5578fcdb289a2a3e6efa0183e38e44b"},
	"ring-24-outage0":      {"f56a6cd3e735645af61625c846facc69d09087108bb0f640f706ee04d3fdc895", "3396650d54f13ead0413b1d9a6b06ef2774ccbf095bc87107e3362ac6b74cebc"},
	"ring-24-outage0.05":   {"3f3141dc8b1d65f14b2e720cf5074b5d534859c58e7eeefdc3876f978ab0d876", "7c2688e5ce05702ce1c559f03ea2c5e1c5447ec0c1c9f87ada8b0255b9a2ebf7"},
	"k4x1-8-outage0":       {"da47cdd5f54b4091acee1c90f1ae4cb36cf54e19fbdd3a8b6af17f38c1a6e9d6", "7808fbb3ec0748139ee59f1982a0870a50eb910c0a5e41ee6b7aa2e7951cc524"},
	"k4x1-8-outage0.05":    {"756d2cd7559c425399be06714cf7bcfd7c3fe6bbd25f49ecc24d443eb1bd6c2e", "04139580954c61643f7b80ce2d6bfd4eef977079e8630f87bb37a00ed7a41115"},
	"k4x1-12-outage0":      {"5dc734bd3a7e5bd42d87a41352ac965602b1faee7ca5ff5636a4d7d951c0796d", "2aad4074899fb106507ee6de05b6e5c6d721acf8f980556ebc2d6f2b709bb115"},
	"k4x1-12-outage0.05":   {"cddf3930296d1d690e94f0e7ec7a28a4beb35f018e5c2fb16aeb0a39754e80f3", "bfd64fbbeace609a2c6dc6296e9f2ff881a7829153b1650432f9d5b7982a3ac1"},
	"k4x1-16-outage0":      {"8ac732a2ecef709844cdece00a3ccbf189360054b6adf6e5ae09aa2e108e4f18", "50565b9df9abbfe88a9401c2b78013f75758ef7de649761fc8871fbae0efb8c2"},
	"k4x1-16-outage0.05":   {"1761f575500e753e61eefd9809e3986e77d884f3b76f1a0142314388d9fa1c12", "791c818bde6d0ae60f5f9de84fe029cb6457bbefc6f8d987ff3334ef17cd3968"},
	"k4x1-24-outage0":      {"7e563e35a83e3e3bef2ca5df588e753c9bcf889b96a66b1e728621a30d7120eb", "c2f2e3546402126604aefc2db9296aedde2c01f88d9ac3de52f8133aeea15ac0"},
	"k4x1-24-outage0.05":   {"2333cd10870dd82fab5cd67f03b1032ef25e01212bbf9bac0c8ceecdbec4672c", "d840d2abefab536aa8b60983c0b547f170875cd8cc2d939d7ea81bbdc65860a8"},
	"k4x2-8-outage0":       {"27defb93f4df24bf7d909e52f343fd4f40a77b786f021a50b6641bc1b174a93a", "3b39e991f2c3385d33ff7e0d2dd099977917b2073dfd034c5342a59e3b41e124"},
	"k4x2-8-outage0.05":    {"798d4ac59384a4e3c67b955d4f6f639bd98dbc628ff9d88f71cebd5eb9d88e04", "adb35201faae352642c0caf5c068a6d32b18e795fcde7c3a7434d8396f9cf01b"},
	"k4x2-12-outage0":      {"bec9548945254a165ae378260e2e5250e56fa8a4a77a4f8ee7211ec2d3c5df41", "2611f91d570b8ff699f4780240313b30dab2950d25c37828ecc4ee5f56544806"},
	"k4x2-12-outage0.05":   {"0a57e77dc7c67c345c317836f2b01c6534f47c8422b468e4edc0cc5b9589cbfc", "438100c2c42e617c44c9dcb2007d7dccaf7e6952ce1dc302ae5b9d44a4511417"},
	"k4x2-16-outage0":      {"9cae0afa2e68dab72988f9094b2bb76a91a56642fed68d9ab797b0ee17096972", "725b45887c2260f337c7fcc0b423e6c64e13daa2cd882167be26bcb07e0cb6a2"},
	"k4x2-16-outage0.05":   {"7f1eec26a4f7fea50d367aef3fd21d05c50f69cb8dad6467c3a5e1f2bd1d5a85", "355a2100df125160d996f1311f38db771967a444a740befee3d04042eef5e901"},
	"k4x2-24-outage0":      {"3dc8f41a85e91945b92ccc35bd5034c59ee27fc9f34e3e7cecf6b163b4bd477c", "1afbb7682e3417d150b7a65c4d81ac7167a3b769ccf03e4940284b4c59c99ba0"},
	"k4x2-24-outage0.05":   {"10821e4a304fcf4590f99b7c4a4fbe95a43e8cdfce43b5be673389d93a343702", "d56d11db7bc97e806cc24b24bd7bdb14395fb98e1c9f3869eabd3b813ae58e79"},
	"k6x2-12-outage0":      {"9c0897eadd557b6b57361c0b62e40a2a09d4cbf149fb0ae1e9231e9cd880d5a8", "3c8eeb40fb3a4c750412c92a9395b28ac86dcb4025091cdf4b47a19ca6238524"},
	"k6x2-12-outage0.05":   {"ed868dac84a5801318e3504bb71bbbc8c918b6bf456eff876ca44eb320de95e1", "a1955359322b920e65db06c183461122b90a6f5c7f41a38f754eae31b83684c2"},
	"k6x2-16-outage0":      {"a23fc2e3b6a104fc9aaa516f23a32854b2ac1d415ae1bfa94ca41b3f52cb59ff", "75671dd068e53db96805c1d54125a614b9ce355eb244167afa9f0491d61087e2"},
	"k6x2-16-outage0.05":   {"b77a5f5e4c3a1b9c6ed4948d44c62642230568658692816edb0cb39bbf5fc69e", "5ce50edab196c89b693117276e9984eebcf3b2c272b87f0fcdb5b0388e83a321"},
	"k6x2-24-outage0":      {"71ebc670180fa6eed2f3a69dbeef47f86bf569df3ffb7db1137409e16df252e2", "de1bdaa9bafa96961e2b60f1e8319e82da6e35400ecb25b4dd059d712ef08626"},
	"k6x2-24-outage0.05":   {"047fe97b2759ab4a49a150b0fd7dd36fb22af666f44b68030295f6be7f1511f1", "3390c571189373ef51a70681634c0c1bd30e93d4c73323badd2fd862194d5852"},
	"geo3-8-outage0":       {"f20fd8b169c08b4ee60da9d5af3ac2016b137c8f19e7c90032ef3f3d7a6f5d8d", "2e7da37220fcae09ce2c95b6eb8663cba00666db58dd05e7f736921222d3ec1d"},
	"geo3-8-outage0.05":    {"9e8db785c5085633cd7b33443d8c924381258a50a902d9e7315b2623eea5c247", "4bb018372687f059b036c7d0c6cb38fb84dc691dbf0b3853a4a9242c2ab83449"},
	"geo3-12-outage0":      {"10989029b9cc2411f8643da4af2042f260795581409728c6ee4ecea149a19087", "b851cebd7b538e5a3a0de13e14f78eabb032c847c118078257551b4773da4b9f"},
	"geo3-12-outage0.05":   {"e915fa2ebe57478ec8c97622ee81c26bc5c127eaf3e494f6140d537ae628da3a", "1587b984f04005cca6d72ff1adf0212288c752832cd19230d246cd4c86fb4eac"},
	"geo3-16-outage0":      {"cdb6536758b753ca3d0bad1f6701192bd8fd8e7c8206b4978b53d571d310a3d0", "7d86bd189646cf39f6d089e9953175c5cee1b2567ae04a307be5ab565e532e71"},
	"geo3-16-outage0.05":   {"3d33fee72d5921ef3c6c686f9e29bfe55d5d580cb357765cc6d8b26506ca525e", "42a86357801e7ba4b9910d0c69da5483ada1656d7b168291f58920b576351409"},
	"geo3-24-outage0":      {"cf733f87b0342548f6140d2e5b1507cef1712f477d45ea6f9195f795d93d81ba", "b9c065bae45826eec1b678edbf3ca5ee807b914c387fad79c43a779a235fb986"},
	"geo3-24-outage0.05":   {"49a13ca0968f051cde8c62ce0e9c031d87ddb8612e561fdb492d194deda7d12f", "727cc1116a03e4c15d5374ddeca3cbd2cb9a729101a4adce509c4ba09251a0fb"},
	"rf-ring-heavy-outage": {"8bdb4a49eb60dc23babdfbd38626e88adb4e668df00f7954fee63f9b90b8bf2b", "f5a7dacbaa695b9637585f86f675cf30315f5c8eecc73081d745f7f208ba7342"},
	"rf-ring-sat-failures": {"f6b06e92d37f4ebe298e51cfb9bf0fe5d14324a13a8f79d0320f9746d35b85ff", "fac7c374c9a7139e0dc49113a8d10fe492f9ce7d0c05219174df5d797e6028e5"},
	"k4x2-eclipse":         {"ee9ef54e372c4dd364dbfa60e8c84469a31522f2999d09b72b69aa733bf5838f", "4cf54bb50a36a5d549e8861579932aa2423b46d3747b9505dac13bbaf8680d1f"},
	"big-grid":             {"e6b51b51ff4689d8be127b6b7b9a8b9bd12b68128d94dc913e634800540c73f2", "70943adb87182695e813c70ba235b0dd4ccaac7713e6b55a2d8bba03dc1ae3c4"},
	"2shell-nearest":       {"2cf10e2fcc919f4eec1d7789965886253867b252c69627a98fad2e1c63730387", "9a50bf778d8cb3c3d6d5e83b80403e5b592865797f135c1d71db3b0569ef6f53"},

	"eclipse-grid-coarse":         {"3f09c7c54f5ca7827581759cdf2a0c66af084b28e53a1c48f06d9900343aee9f", "d660b4586b77194ab475c1c046ecd33753661b755c0aeb2cee89d5018b2033ad"},
	"3shell-eclipse-sat-failures": {"0eb660512743399470c37d74ce9d9e1f6dfca79148467d4215e162962e761744", "49e072e19036a5ca8c0104aee78509d9e3a2bda9cea2892bc953490979546800"},
	"geo3-eclipse":                {"78066d1f0a5c9c5430c6bcb933b4dd331d5b64a35fde896da49cdaf0ff0d71ed", "4d118381a3a0088d2a459437bf086b6419ef876a79652690ef1fd67dc5f7cd92"},
	"ring-low-rate-sat-failures":  {"d265a70abdc8f7877bbd8055fc1d84995cac116bbf5a9360dd914762a8ce6d88", "d347f35292165d7ff53162acd2f5b605aaf546e2d9be2f2874a24d2595e6007f"},
	"ring-fractional-credit":      {"38f62f1d24fdb1ee3e082f35c96537540e254f601c147aae25d7bab5a2a34b09", "624bb363b6e557a04decf36defb9a714d45634a5ca6c6b0e502ff04fbc255750"},
}

// TestNetsimOutputsPinned compares every pin scenario's Result, bare and
// instrumented, with recorded digests. They were first recorded before the
// segment-run engine, then re-recorded once, when the two epoch-rebuild
// fields left Result, after every rendering matched the previous one with
// those fields cut out. The event scenarios' digests were recorded on the
// engine that still rescanned the shadow arc and walked every source each
// step. A refactor that shifts every run the same way
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
