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
	"qos/open/combined/0.5":                  "a4e77c715a061722fe8fe3916cc5dcd74bfe9c15d9114dcafc427b98d70fccb3",
	"qos/open/combined/2":                    "f93392c37e9d06e69dbfd58f12bfd0a186b01e1269ba2f011348b68af28ab817",
	"qos/open/ground-outage/0.5":             "0872f79e3b53da16629a78a7501edc0d5efbab10886ae0a5b3356cf9b9607c97",
	"qos/open/ground-outage/2":               "7b7c1ced757ceef0abb1aba644b2b02cc407f2d1dc65da1d31f8c938e2f3cb9b",
	"qos/open/none/0.5":                      "ba5264638083a4fb77c29a0c9706d3666607c7f9ebb6057b66a0d51888b9b68c",
	"qos/open/none/2":                        "9490cd8c7016eba52865639cb5d25bb5606f771a2f35063945cb0544d9623453",
	"qos/open/radiator-derate/0.5":           "7b3dbdf3a80594d5dc7b54fa33cc1da6819950ed1d52c848932b8f0149f750ba",
	"qos/open/radiator-derate/2":             "832915badd5dbefbd255ee46f7ff394bfda640728e11ff62531ff828af850b36",
	"qos/open/seu-burst/0.5":                 "0ce48ee79b8c654f28f912cf34355ef8df47e906f2342fb03361e1ef1c192a0c",
	"qos/open/seu-burst/2":                   "e1cc4916bf3b99e9f9977bf7f06ee4d38cd74be862ded54d7e7705583f7cb282",
	"qos/priority-retry/combined/0.5":        "127889ba1bb28aa05f81e8cb88484232c017f785546623c90bb03fee420c4627",
	"qos/priority-retry/combined/2":          "e163ba0f236a03cfa1d9422c8b6b681286beaf618c6b20e504d531e5e05ed765",
	"qos/priority-retry/ground-outage/0.5":   "ce33caa3ad6cbf5a0fb5c0237c8be0cd713e72dc4983d53e0760491b57d009fd",
	"qos/priority-retry/ground-outage/2":     "636e185c7f000c52277cc2f452d3145207f4eecdec0e88b2290c4f7755b27f66",
	"qos/priority-retry/none/0.5":            "e89bdc8f05ac015d223650ea6c02ea35073accb1da283b8efa9c3a4fca8f5671",
	"qos/priority-retry/none/2":              "287d4a52a39866395c6aa7a1be7952a5f8ac80d5e39ad3b813fa3440d1999876",
	"qos/priority-retry/radiator-derate/0.5": "b1fa850083476ffc83d26ef81a05f531d8a05f8688faa58815fcffd89dc81f41",
	"qos/priority-retry/radiator-derate/2":   "9ca7204afa27b702b99af9cb169d930cc9a5d5264ff5ebf5479dace347907588",
	"qos/priority-retry/seu-burst/0.5":       "31d4b5f311f5d66ad47cd590a4f181e313981b6cdf82a4ef48247bb0eae80310",
	"qos/priority-retry/seu-burst/2":         "3a48ce15e49ec8cb9743b9fab7845b84aee702a77c6450bc80f5c53fab02211d",
	"qos/priority/combined/0.5":              "6bbf3e93df7c4114caedc2ba66674bb5f32a9868df3921bd0c597718a7658823",
	"qos/priority/combined/2":                "24f453e3606b45a777642aeab0ba65fb8c765200a5f10087e159a3d82342e2f3",
	"qos/priority/ground-outage/0.5":         "1918eb3dbcb00dfecfdf0064b64c5dcd9f6f5b6260c76bf4320036231fb871d1",
	"qos/priority/ground-outage/2":           "05e9390d066691c45f9baffcb3d243f32ad11397257c28bc75266bcc62e17dda",
	"qos/priority/none/0.5":                  "86867a0a650abe7b87a55b70162989070b8ef852c126dcf49d00ffd89877e9e9",
	"qos/priority/none/2":                    "22fc6934f436012fd126f82a42681b2b534e91e8a84c201e137c7bc772c560be",
	"qos/priority/radiator-derate/0.5":       "512304b56ad8a46c0c0c9c9af9409a944718d2f1be0617882565231a2877b7b7",
	"qos/priority/radiator-derate/2":         "08dc8153e2c8f6fdae7fa8a3effdd4a840577c2fd907fd190bb91bc2a66d35d5",
	"qos/priority/seu-burst/0.5":             "1319d32b016e24c1da689c599131f900784b271deba8cf7017dff703ca868f28",
	"qos/priority/seu-burst/2":               "68d16aae266d91e2d0b0007f4d1db63907c8695f4340c308ed158857b406a854",
	"resilience/ISS-420":                     "942a71ae212ca20bac70291daf875d729ba47d406379eb077b25edbfaef56814",
	"resilience/SSO-550":                     "8d716a2dfb173a2196d6ab2c8e2a494999ceb9f22dec12f9eb417a67a2f31436",
	"resilience/equatorial-550":              "badcc321e6ead861b97aec9c37df86011cc86c9706dfe72451dd94fb41e637d0",
	"sched/batch-1":                          "08b5a84b984596788cd53cc553420c8da0a3e78b4b7805576eaef087a1449f91",
	"sched/batch-16":                         "8d65230e098cbe171294b53d8920472a341670c48f17c71355ae704b040b1b43",
	"sched/batch-32":                         "6bb1b4e0d11cfe7fd37ca3b082f1146f5503fba198038dbe14beb47893a7e32e",
	"sched/batch-4":                          "0f66c01c58b1021126e56b7657ee86062354714dc6ffed4125838ac59cd3ee30",
	"thermal/0.4/shed-false":                 "96808fa94a999cf8edde396385aa1395d462b7f0437fae9ef513f37d72123211",
	"thermal/0.4/shed-true":                  "cde9bfda67052e641491a219e38bb065e6091885a3bfff456f5bbc475acd1b88",
	"thermal/0.6/shed-false":                 "94bedab9ecb407a11b87ad4e4895aa3555dc2297fe93e760378c2bd960b97185",
	"thermal/0.6/shed-true":                  "e2ad23c26ed2f504a81b280880f3caf5737d833ad2555dedcbd322c9226784c4",
	"thermal/1/shed-false":                   "b0fba33345197aaf09ee603d39bee03e3577fc31e67f2945252e9f134a20f13c",
	"thermal/1/shed-true":                    "982d0efedc0db6e4e191a99f74e570d19cb1b834d99f007939d69a8ecaceb945",
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
// refactor of either must leave every case bit-identical.
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
