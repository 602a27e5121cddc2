package store

import (
	"errors"
	"testing"

	"dcg/internal/core"
	"dcg/internal/usagetrace"
)

// TestResultPayloadInflateCap: a result payload that inflates past
// maxResultBytes is refused with usagetrace.ErrTooLarge.
func TestResultPayloadInflateCap(t *testing.T) {
	payload, err := encodeResultPayload(&core.Result{Benchmark: "gzip"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeResultPayload(payload); err != nil {
		t.Fatalf("payload under the cap: %v", err)
	}
	old := maxResultBytes
	maxResultBytes = 8
	defer func() { maxResultBytes = old }()
	if _, err := decodeResultPayload(payload); !errors.Is(err, usagetrace.ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
}
