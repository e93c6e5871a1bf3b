package jobspec

import "fmt"

// MaxBatchSpecs bounds the number of specs one batch submission may
// carry. A sweep bigger than this is split by the client into several
// batches; the bound keeps one request's admission check, dedup pass and
// journal fan-out O(small) under a tenant quota.
const MaxBatchSpecs = 256

// Batch is the wire format of POST /v1/batches: one request carrying a
// sweep of analysis specs that are admitted atomically under the
// submitting tenant's quota. Specs that are byte-identical after
// defaulting (equal CanonicalHash) are deduplicated into one job, and
// specs whose hash already has a cached result are answered from the
// spec-keyed result cache without a queue slot — a corner/seed sweep
// with overlapping points costs exactly its distinct uncached points.
type Batch struct {
	// Specs are the sweep points, in client order. Each is validated and
	// defaulted exactly like a standalone POST /v1/jobs submission.
	Specs []*Spec `json:"specs"`
}

// Validate checks the batch shape: 1 to MaxBatchSpecs specs, none null.
// The specs themselves are defaulted and validated one by one, exactly
// like standalone submissions (see Spec.Validate).
func (b *Batch) Validate() error {
	if len(b.Specs) == 0 {
		return fmt.Errorf("jobspec: batch needs at least one spec")
	}
	if len(b.Specs) > MaxBatchSpecs {
		return fmt.Errorf("jobspec: batch carries %d specs (max %d)", len(b.Specs), MaxBatchSpecs)
	}
	for i, s := range b.Specs {
		if s == nil {
			return fmt.Errorf("jobspec: batch spec %d is null", i)
		}
	}
	return nil
}
