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
	42:   "4fd9da0eca225cdc636fa377c6d05905eabe6842a253dd1939239bad56c87894",
	501:  "1847503ae26daeec51fa806bf373174b586f34d1cd2cb9dc4fd4c9ade49f70d4",
	777:  "5c2ddf2b7dca1767a25805ffd16f7afb21fe1727f86526e7e109c3e2d6baf8f4",
	2026: "e5ded5806c084b73fd70e0bebb231776673653689e8ca5a8da64ba376f83affa",
}

// TestSearchOutcomesPinned compares full search outcomes with digests
// recorded before the segment-run netsim engine, so a change that shifts
// every evaluation the same way cannot pass as "deterministic".
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
