package sweep

import (
	"fmt"

	"dcg/internal/core"
)

// FailurePolicy is the single failure-accounting rule shared by every
// path that executes sweep items: the engine's in-process retry loop and
// the cluster coordinator's lease-requeue path (internal/cluster). Both
// must produce identical manifest records and summary counts for the
// same failures, so the policy lives here, once.
//
// The rules:
//
//   - An item gets MaxAttempts = Retries+1 executions. An execution that
//     returns an error consumes one attempt; only when attempts are
//     exhausted is the item terminally failed.
//   - A worker death (process kill, lease expiry) is NOT an attempt —
//     exactly as a killed single-node sweep does not consume retries,
//     the item is simply re-executed by the resume (or the requeue).
//   - Context cancellation is never retried; the item reports the
//     attempts it actually made.
//   - Terminal records carry the attempts actually made (not the
//     configured maximum) and the canonical "<bench>/<scheme>: <err>"
//     error string; successful records carry the attempt that succeeded.
type FailurePolicy struct {
	// Retries is how many times a failed item is re-attempted
	// (0 = one attempt total).
	Retries int
}

// MaxAttempts is the total execution budget per item.
func (p FailurePolicy) MaxAttempts() int {
	if p.Retries < 0 {
		return 1
	}
	return p.Retries + 1
}

// Exhausted reports whether an item that has failed `attempts` times is
// terminally failed (true) or should be re-attempted (false).
func (p FailurePolicy) Exhausted(attempts int) bool {
	return attempts >= p.MaxAttempts()
}

// ItemError renders the canonical item-failure string recorded in
// manifests and surfaced as Summary.FirstError.
func ItemError(it Item, err error) string {
	return fmt.Sprintf("%s/%s: %v", it.Key.Bench, it.Key.Scheme, err)
}

// OKRecord is the manifest record for a successful execution on the
// given (1-based) attempt.
func OKRecord(it Item, attempts int, outcome string, res *core.Result) Record {
	return Record{
		Type: "item", Index: it.Index, Status: "ok",
		Outcome: outcome, Attempts: attempts,
		Result: NewItemResult(it, res),
	}
}

// FailedRecord is the manifest record for a terminally failed item after
// `attempts` executions.
func FailedRecord(it Item, attempts int, lastErr error) Record {
	return Record{
		Type: "item", Index: it.Index, Status: "failed",
		Attempts: attempts,
		Error:    ItemError(it, lastErr),
	}
}
