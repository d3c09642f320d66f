// Go may fuse a multiply and an add into one FMA instruction on targets
// that have it (arm64, ppc64le, s390x, and amd64 from GOAMD64=v3 up), which
// changes float results in the last bit. The digests below were recorded on
// plain amd64, so the file only builds there.

//go:build amd64 && !amd64.v3

package optimize

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// pinnedOutcomes maps a search seed to the digest of its Outcome's %+v
// rendering under the study configuration (the ext-optimize settings:
// budget 48, 8 annealed restarts, testEval's short simulations) over
// DefaultSpace.
var pinnedOutcomes = map[int64]string{
	42:   "45f1d004d216ccf7efbb2a89f0df91ca1ae482f24c32b6f5890d8f728a7ce5af",
	501:  "b940e38ad4b74047b3c35101c4469016ed5be06546a31e554de30acf21daf510",
	777:  "0142a71dad4ff9808be2ce7a972bb16a88ef52a1800ccd79c48bfd658b9f9aab",
	2026: "6a8015cb09e565374fc253a4dd6b3285b8f172a470d103f7999205a4fd4ae480",
}

// TestSearchOutcomesPinned compares full search outcomes with digests
// recorded before the segment-run netsim engine, and re-recorded once when
// every engine moved to a PCG stream, after a field-by-field diff against
// the previous outcomes, so a change that shifts every evaluation the same
// way cannot pass as "deterministic".
func TestSearchOutcomesPinned(t *testing.T) {
	for _, seed := range []int64{42, 501, 777, 2026} {
		cfg := Config{Seed: seed, Budget: 48, Restarts: 8, Anneal: true, Eval: testEval()}
		out, err := Search(context.Background(), cfg, DefaultSpace())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", *out)))
		if got := hex.EncodeToString(sum[:]); got != pinnedOutcomes[seed] {
			t.Errorf("seed %d: outcome digest %s, want %s", seed, got, pinnedOutcomes[seed])
		}
	}
}
