// Go may fuse a multiply and an add into one FMA instruction on targets
// that have it (arm64, ppc64le, s390x, and amd64 from GOAMD64=v3 up), which
// changes float results in the last bit. The digests below were recorded on
// plain amd64, so the file only builds there.

//go:build amd64 && !amd64.v3

package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"spacedc/internal/apps"
	"spacedc/internal/gpusim"
	"spacedc/internal/obs"
	"spacedc/internal/qos"
	"spacedc/internal/resilience"
	"spacedc/internal/sched"
)

// pinnedComputeStage maps each compute-stage case to the digest of its
// outputs' %+v rendering: sched's batch loop (ext-sched's batching grid),
// its fault path (the ext-resilience policy ladder per orbit), its thermal
// path (the radiator-undersizing rows), and qos's compute stage with its
// degradation loop (every policy × campaign at two loads, result and
// metrics snapshot).
var pinnedComputeStage = map[string]string{
	"qos/open/combined/0.5":                  "5b7e4b765f87eb549fd6901511adeee82d70f16bb67d2d081e2f921459201119",
	"qos/open/combined/2":                    "c0a6986c0e7508aaa19d873331b4facff95a25918674d0bc7be0c68cd2a51f63",
	"qos/open/ground-outage/0.5":             "ecb57b1427e2af79f9a92b87472d30712e59302d46bbce06d69232a0e8d4ff22",
	"qos/open/ground-outage/2":               "8addfd491a13f147190913f81bc0f3c378066531ef29212abd5a28d06f2d6d2c",
	"qos/open/none/0.5":                      "4024406bb97686592f7adc1e5e2a636c75c08821c59fba8940b396db2db80712",
	"qos/open/none/2":                        "4303627e9a26504599539459213bade376265e3fd840aa500d1bfb2639aa3979",
	"qos/open/radiator-derate/0.5":           "8c4afab36021f9274ff9183499e4f772c34332191d4bf2e8607e54f13dc28994",
	"qos/open/radiator-derate/2":             "57a85c74244b5308a3f242b77706a61e186f173cba915fb46163dcdd868042f5",
	"qos/open/seu-burst/0.5":                 "5304a23799629a6d84f28e2247d840067e2189d7a471c39e6bac250ed50d51eb",
	"qos/open/seu-burst/2":                   "d6af70360aefd77d879b1449df82fa6282cfe8ad0f4b6a70a317d19de419ef91",
	"qos/priority-retry/combined/0.5":        "f21aa1a6e5bc2da2a51728cac5715f05b2b234dcb217fd2b895fd8a3fcb907d8",
	"qos/priority-retry/combined/2":          "f691c7422f29a52138cb6d5c861fd935d3b18f0ff4803c765a01334fef1cf929",
	"qos/priority-retry/ground-outage/0.5":   "fd106bdf0eb75a60798abf99621b9dd07c98f9267f3c7775c0f009d76aa5f054",
	"qos/priority-retry/ground-outage/2":     "4d6f8c49f33079569061c6ee3b648042653be9920b9b1f363441d02611683f03",
	"qos/priority-retry/none/0.5":            "047be80e793624f8b4cebb2bed675fc140ff30e0c375f017b09f7293ffcd4d52",
	"qos/priority-retry/none/2":              "02daeb786e9f97fda9885a53c9ba7f2f1f3befdc0fdee146e05610ce9a59b5b7",
	"qos/priority-retry/radiator-derate/0.5": "dd08a61d74aa110e546d7361d28abef501b38655f71125704de570794b900326",
	"qos/priority-retry/radiator-derate/2":   "2e4809c4138a245830e333455086dabeac153ac43c9eae76ad95b6d0934bd25e",
	"qos/priority-retry/seu-burst/0.5":       "a880e73e659174f06d490d308273c9e8c69a9a16a6f1d549852a68eb1e676aa0",
	"qos/priority-retry/seu-burst/2":         "470a331035a4c5fe210a94da6bf100751e6908a660a9383b4d4fac527174d645",
	"qos/priority/combined/0.5":              "e8b0f748fe8261c2fcaecf2d98cb2e73847ea3c84f3737fa2386963dca27da44",
	"qos/priority/combined/2":                "23112523493b3b8a554bef286657ae7c5a35ba1186a8c6bc383888eef2e5416f",
	"qos/priority/ground-outage/0.5":         "a289ad8ecce9197566558e801c00d22ad362c671c9f5523a4f0340b9299085c6",
	"qos/priority/ground-outage/2":           "7f738ef36364019b5094d7c4c9dc649fa33dcde50435909a647324f5cbcb74bd",
	"qos/priority/none/0.5":                  "feb9c82ddcc9c5ae65c40a564b04db2974701391eb57771d13556aa95dcfbb34",
	"qos/priority/none/2":                    "aab9d9b5de3d7dc87f858c857d34f23653d28d95d15aaefdd29d9d63bacc4b1c",
	"qos/priority/radiator-derate/0.5":       "80ee769630a08576ed27dcb5c31a2a724e98112cc2819984b68a77bb960e9912",
	"qos/priority/radiator-derate/2":         "306229217ef72069d49d0ff6639eeeeee8aefb15aaeb53109ff1811cf5110836",
	"qos/priority/seu-burst/0.5":             "6179b698a74c8828ba18c2bfbb8b9e13f458f7a9dc8b3d336bfa9aa9d509b7b5",
	"qos/priority/seu-burst/2":               "c42b79c2ec4eb8aa1854d468682c36e9df26118143506b8b72968b2b354feba5",
	"resilience/ISS-420":                     "a9b66c1d6269342c197b133efc20f87c2c380c3773e879d3181ab76226fb8f2e",
	"resilience/SSO-550":                     "7960a82afe1a03dd54c0b3e4fe5cf676aadd37671dcd69e63e8bc83fad3f63eb",
	"resilience/equatorial-550":              "80dc67c855fffb62c98fab24e5b90c85cd0784310a264e3e87a215a27260e321",
	"sched/batch-1":                          "08b5a84b984596788cd53cc553420c8da0a3e78b4b7805576eaef087a1449f91",
	"sched/batch-16":                         "8d65230e098cbe171294b53d8920472a341670c48f17c71355ae704b040b1b43",
	"sched/batch-32":                         "6bb1b4e0d11cfe7fd37ca3b082f1146f5503fba198038dbe14beb47893a7e32e",
	"sched/batch-4":                          "0f66c01c58b1021126e56b7657ee86062354714dc6ffed4125838ac59cd3ee30",
	"thermal/0.4/shed-false":                 "96808fa94a999cf8edde396385aa1395d462b7f0437fae9ef513f37d72123211",
	"thermal/0.4/shed-true":                  "d32734fcf3784921de662628364e7920102d60bce0aa4558bf554b241b953711",
	"thermal/0.6/shed-false":                 "94bedab9ecb407a11b87ad4e4895aa3555dc2297fe93e760378c2bd960b97185",
	"thermal/0.6/shed-true":                  "f2b6d6da940ac0d1e020ab6ea87144b79935efad11b0412eed36f20b026eff86",
	"thermal/1/shed-false":                   "b0fba33345197aaf09ee603d39bee03e3577fc31e67f2945252e9f134a20f13c",
	"thermal/1/shed-true":                    "d29c1abeef7b4318a1f5cf259de02c1cf4b8ad12c4dc3b95dd20b77517d0da85",
}

// computeStageCases runs every pinned case and returns its rendering by
// name.
func computeStageCases(t *testing.T) map[string]string {
	t.Helper()
	out := map[string]string{}

	proc, err := sched.NewDeviceProcessor(apps.FloodDetection, gpusim.RTX3090, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range []int{1, 4, 16, 32} {
		// ExtScheduler's configuration.
		st, err := sched.Simulate(sched.Config{
			Satellites:     2,
			FramePeriodSec: 1.5,
			PixelsPerFrame: 1e6,
			TargetBatch:    batch,
			MaxBatch:       batch,
			MaxWaitSec:     120,
			DurationSec:    600,
			QueueLimit:     1000,
			Seed:           1,
		}, proc)
		if err != nil {
			t.Fatal(err)
		}
		out[fmt.Sprintf("sched/batch-%d", batch)] = fmt.Sprintf("%+v", st)
	}

	var iss *resilience.EnvTrace
	for _, o := range ResilienceOrbits() {
		sc, err := ResilienceScenario(o.Elements)
		if err != nil {
			t.Fatal(err)
		}
		reports, err := sc.EvaluateAll(resilience.StandardPolicies())
		if err != nil {
			t.Fatal(err)
		}
		out["resilience/"+o.Name] = fmt.Sprintf("%+v", reports)
		if o.Name == "ISS-420" {
			iss = sc.Env
		}
	}

	rp, err := resilienceProcessor()
	if err != nil {
		t.Fatal(err)
	}
	secs, joules := rp.Process(32, 32*3e7)
	for _, frac := range []float64{1.0, 0.6, 0.4} {
		for _, shed := range []bool{false, true} {
			st, _, err := resilienceThermalRow(iss, joules/secs, frac, shed)
			if err != nil {
				t.Fatal(err)
			}
			out[fmt.Sprintf("thermal/%g/shed-%t", frac, shed)] = fmt.Sprintf("%+v", st)
		}
	}

	for _, policy := range qos.PolicyNames() {
		for _, campaign := range qos.CampaignNames() {
			for _, load := range []float64{0.5, 2} {
				sc, err := WorkloadScenario(policy, campaign, load, 0, 5)
				if err != nil {
					t.Fatal(err)
				}
				sc.Obs = obs.New()
				res, err := qos.Run(sc)
				if err != nil {
					t.Fatal(err)
				}
				out[fmt.Sprintf("qos/%s/%s/%g", policy, campaign, load)] =
					fmt.Sprintf("%+v\n%+v", res, sc.Obs.Snapshot())
			}
		}
	}
	return out
}

// TestComputeStageOutputsPinned compares the compute stage's outputs with
// digests recorded before sched and qos shared one batch executor, so a
// refactor of either must leave every case bit-identical. The cases that
// draw were re-recorded once, when every engine moved to a PCG stream
// drawn only where an output reads it, after a field-by-field diff against
// the previous renderings; sched/batch-* and thermal/*/shed-false kept
// theirs.
func TestComputeStageOutputsPinned(t *testing.T) {
	got := computeStageCases(t)
	for name, rendering := range got {
		sum := sha256.Sum256([]byte(rendering))
		digest := hex.EncodeToString(sum[:])
		want, ok := pinnedComputeStage[name]
		if !ok {
			t.Errorf("%s: no pinned digest (got %s)", name, digest)
			continue
		}
		if digest != want {
			t.Errorf("%s: digest %s, want %s", name, digest, want)
		}
	}
	for name := range pinnedComputeStage {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: pinned but not run", name)
		}
	}
}
