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
// grid and a shell stack.
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
	return append(scs, rfOutage, rfSats, eclipse, grid, stack)
}

// pinnedNetsim holds, per scenario, the digest of the bare Result and of
// the instrumented Result followed by its registry Snapshot.
var pinnedNetsim = map[string][2]string{
	"ring-8-outage0":       {"9ae75d13f1e7699cb3dac841d8bd81c1910ebe31956749a65c88b00f8610b232", "e70008a70d3681ce0c5393cbbf808e0d5bf104cc419a65c5de980aa0b2eb8e32"},
	"ring-8-outage0.05":    {"c5bf524883ffd504dc0c15430de95b52ca107070399126ec5c88e1262a69ded5", "c2ef4a851c0792b9b29a6c304be201d3809aa1916efe916ab821ab0fe6ca62d0"},
	"ring-12-outage0":      {"74275f637f10f2dea2f0c7a6f042451cd9cffea9a17c84dcd3c01807656edc9c", "1ad39ade9372ebc7c24827b5eb9d0f0db92ff8f290fc5afc5b99c9aa023dda9c"},
	"ring-12-outage0.05":   {"47c1192fd14191ec18aa743f9655e420333bf03b89055b60383c73b94a5ec814", "a028eafad642b7c80b7f292f1d48569977e52bb4e8ecdbc8c1c574bfe934b713"},
	"ring-16-outage0":      {"3c38aedd4afecf7e265bbd88375146b5abf1edb14fa640deb97e77d65ac226df", "42cbbf5230a009f751840986e3bf9808c6c681e494c1f0754c9cccd9863e3ddf"},
	"ring-16-outage0.05":   {"98a4923b3a96546314176d9980b10e27c269f071fa786299c67319e0273b731f", "f35ed09e5264fcafaf7f6962f8c11ab5a0b4c4c2718c1bd9c4b3d99b3c03e44d"},
	"ring-24-outage0":      {"fe78f4bc14c98806e05a739efac681a659297455586f532b419ed6788b3ff768", "64660440603a26d0e078e8d38e765cdf83a10d6e23413ed60a6f05b4a1c53188"},
	"ring-24-outage0.05":   {"3bab96aa2c61b84e64bfa7ec47bfd902cd478a7062cbfbb1e0a7f21e6b5d8a29", "77496de71805be13d2f6adf07650f75756ed90b8876a18f5590512bed17a25dc"},
	"k4x1-8-outage0":       {"f78698ba97a3b723e0f4a15d923e6bd0dc554ae8150def2f3b8458b7b29fa9df", "d481b5269b2416937f34f6641b477a6dfb6de100283766e98b86381352101d47"},
	"k4x1-8-outage0.05":    {"319464a4e37abad90060986ad9d4942ecabfd5235e13e6a6cbeba6e3f8d9e1bf", "5b2c03cf6179189e8a20fe772e87cfdac814a9996b4f2b41d38b9930395cc310"},
	"k4x1-12-outage0":      {"53613a7d6d693852009d9efad6a5ea335af31f91d8a200f6d33f645601a3c334", "fd030c1964f2ca149dbc8956f53cf9c16397e0712e1b24160c92732aef286294"},
	"k4x1-12-outage0.05":   {"0ba76beae2be396cdb742f54ce6eef955adc98bcec88ba9bfdbfaa082bd65c84", "95e4d6c6ecc03c3f4c2d25f0e171ed7bf2fc626f985e37a2c030bbd1aca3e0b5"},
	"k4x1-16-outage0":      {"fd66bf416ed0cacf9b5c18a8ca45adbc28cb3eaf49d4812b31564204689c7dc8", "1e1dd0b10b7f8769d45e9e2f5c13ddd538473c0961ab826569aa150161c821f2"},
	"k4x1-16-outage0.05":   {"05dc57e5b114ef002c953f88a79f2b51bcfb9f0431fc112cd6ed37dbd687ec4e", "f831adad5bd1f24eaedcbf96c4de9655d596bb47d5680479c40dd617970a6dcb"},
	"k4x1-24-outage0":      {"6c8d093350b303efd271730aa410a1fc6005491d13593442c51cda10d11138dc", "f1ff1b75d9c834a2b94caa0a510a2138c3a4bb36f34fd6b57c7b852149adb950"},
	"k4x1-24-outage0.05":   {"e7e910d33be405bbeb3ca09ab93c93727caf86f12594da57a2600edc8f734137", "7f520272536a855beb35bdfdf12acf7189445884bddfd8cdab7b73f1382c7898"},
	"k4x2-8-outage0":       {"08de72d0a75640649a2550ef9222bef4acd18548025ded6e304e8ebd568ad711", "3a147dea2afe0409f57b9c4058ccf324bd72ff374016657309e687790bd439cc"},
	"k4x2-8-outage0.05":    {"c2db328f60694d93f2b7df694c1a98f483f9cb260822c1690cace5e8f479a9da", "6e575beb560ea55a91b5d55bea1c1397be5c13bcdbbd4bfa2c6588aa0308d091"},
	"k4x2-12-outage0":      {"07ef8a997c6a1c4eea6fe21e86717f450a66dae79729f2a380693e83c31e0687", "b17c2dc6eabc17f1eb7ceb36afebd5a66214ab16553c9399bf569369a7a81a5a"},
	"k4x2-12-outage0.05":   {"1892275eca0c37d942c2842d8632a3c51619df5498a3f0781a0518ec6828c39c", "4524dfbe3f19d37d16884565a369f0dc00c93c815d893eca767f9b6b621fe4a9"},
	"k4x2-16-outage0":      {"ce6d4d137186752bc18ce8c7fa88346baf5e5679f23750b001c12fee119a51a9", "8b3201e6a88de1660c5603084d57449269ff1199f74cf42fb19c6b1d95b91d21"},
	"k4x2-16-outage0.05":   {"231ce471b1f4b61475cc913694d80e0d85d7c687d816f52fcaa3f2fa163dd426", "5bf6f1ac5cc75057e75d066af8cc200e7f973ae0c25b7b0da2b0367b17374b18"},
	"k4x2-24-outage0":      {"d52eb8ec4a72ed389d428053bcac41dea8e32d06770ae4f30babecf87b2f820d", "d3388e0986a2e280b11d8eccab11b931207264fe6fa52b7e9f7dcb0bd261d524"},
	"k4x2-24-outage0.05":   {"54b2a45e173ce6021984336370ebb4b774344781bb4f3238bede7a49ee32fb88", "e44874f80dcbdbbd323589549f7f31fdbd3bfd3610c17c2343804098a23637fb"},
	"k6x2-12-outage0":      {"35598a4cc2a3a961e7a4c2579d59d9e0c3f2a66f9b7a900bf3aa9c50fb11eff2", "bb55c6aefd8c62d025deedac630bf23e5a51ba5372bf7fd49082f20b4528704b"},
	"k6x2-12-outage0.05":   {"1c9aed3be7e46ad21781ae76d92b383cc1f4672846c23d2d289de4d5c041c143", "1c25326a7bff638491e305da2a50a74efe446016c70da5927c6d8f485ce38eb2"},
	"k6x2-16-outage0":      {"748c07dbe0c3248c5699395c0ea2db611044122f437e1ccaa3cf4feaab539688", "21a18ef1bd2182fc524e98248d02ae03959e5947f37c2f4dc3d9d7bc2f7e00a4"},
	"k6x2-16-outage0.05":   {"9672326e3766ab8622ad6c6dcaed4f0e46d238fb398f5556a4b760555704426d", "4ec246e2858e9600a1ce7890ec4d5d807a9e38c6955a8ee6f14b685e062a2142"},
	"k6x2-24-outage0":      {"6f9ab6915e2bf5a9bb0bbdcbd94ed8ed24aae7c6af869f99b31ceecc8241438a", "04164ceeb7a46ab981cfa41a01e8e8c5803bea3deb9a0406d650abe93173e59c"},
	"k6x2-24-outage0.05":   {"81fdc8214a75edafdb497776aad8c0f8975a6f629ae8e710b645075588c60b67", "1a7ecfcdb83ce09b053e1a2afd293223bc7e385278e4dca110381911ec90cd11"},
	"geo3-8-outage0":       {"d20991f1d670e9db58507a07c6d5d72198ccb2f66393a48343e4fba1934e0cd6", "9e29a1e131c672e05dbb4f0fd566ac6aa3a1c0fd503346a213d14e6908c04152"},
	"geo3-8-outage0.05":    {"4b85d84281988d7ce6a9f1212a463238d756601dfba59e669857d4ec69040b99", "0049eb63a8b09ce9a4610491a0ec3ca5977aaa73b893dbd1ed16b52a09643792"},
	"geo3-12-outage0":      {"39155eb005bf3fd518e06dc380804c7afb8e738dce67cb4a41521360a82a6372", "ab5a0e466a4ab3ae04d7ffc8a7e8d614dcfc0164cbcc41c434cf348bd493a3d1"},
	"geo3-12-outage0.05":   {"49c6e50b628a770d3675e200dc448424d9bcfd11b3f1ab50c8a7cbcade47fdf2", "d048592e15086e7e7e5b32473e360753d5fa35f4543af3f8e9ab796e008733a3"},
	"geo3-16-outage0":      {"00d75acae457e97c8cdebab8d9e02fa5a577ee3bb3cd7add928a18cbec2140f5", "b8eb466782a371583c3a340872ae354ac5e72db1bd23e1ac1bac9a34a7218cd3"},
	"geo3-16-outage0.05":   {"f10635aa55b2050bc27c69e15eb72911bc50ad8eb0adc314927f973b72dfa084", "815cb83bec4d657f7fcf04522508842aed63967a37d443f45ebef94f602eab4d"},
	"geo3-24-outage0":      {"f2c5a425c3d542a59099150e9813568e2c0354a3950d8cdc9c4f1a2e1450c483", "540b4e54cf3ded74e2aaa94e75a53a5be63f60eb891dae69298e6faa45a2372e"},
	"geo3-24-outage0.05":   {"6172aca8077470dcf9c5bb4133fd2696fe87d77d9075013d1a496ee4513d633e", "e61718a905cab7492a4e463bc310028cdfb8080c16365d7b0c8cbb3731ecb62f"},
	"rf-ring-heavy-outage": {"9b6ad888a18d912a795ca7614a8d6fce49d35fb1f2e5c1c5d9fbfb03f272885f", "c6a1383dfbe846ff5a1627ca87834fd1b4c55678c07a1a66f66f629fb3550938"},
	"rf-ring-sat-failures": {"183afee60ad6a7dd4dbd364746367cba8191f0035cf42f355bdc4a7ccd557a40", "fccacca200f0856f8d5cb1c764e4ec811a7f26de59160189aaaee6d7d6caa2d3"},
	"k4x2-eclipse":         {"d28b1108421eeddd4dc78173a587b3536ce037c53efac731ec9fbd590f11f3d7", "23f8efe06fce358bdfac950432878f1404040da3d68fe5c5617752d3b2d4e27d"},
	"big-grid":             {"8cf64b7bb66318338d4b624b1fb53b20f9b709b15dba6a41cc6acbbe7b2e025c", "78b95ebd69bed3be586a46af1d218065533faa6a27fbb4ac6a1b77eed95eef42"},
	"2shell-nearest":       {"54e32054f5586522ecb24f316463d0097732dbaea9bf3dea8386717bf392bf6b", "5cf7d75578292c1fec00906d98304333a55957d1e2424e4b6cdcd05a6784b76e"},
}

// TestNetsimOutputsPinned compares every pin scenario's Result, bare and
// instrumented, with digests recorded before the segment-run engine. A
// refactor that shifts every run the same way passes the repeat and
// worker-count determinism tests; it cannot pass this one.
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
