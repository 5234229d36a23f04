package shardrpc_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"repro/internal/pattern"
	"repro/internal/seqdb"
	"repro/internal/shardrpc"
)

// postProbe sends body to a node serving db and returns the recorded
// response.
func postProbe(db *seqdb.MemDB, body []byte) *httptest.ResponseRecorder {
	srv := &shardrpc.Server{Open: func() (seqdb.Scanner, error) { return db, nil }}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/shards/probe", bytes.NewReader(body)))
	return rec
}

// reasonOf decodes a rejection's machine-readable reason ("" when absent).
func reasonOf(rec *httptest.ResponseRecorder) string {
	var eb struct {
		Reason string `json:"reason"`
	}
	json.Unmarshal(rec.Body.Bytes(), &eb)
	return eb.Reason
}

// TestServerRejectsOversizedAlphabet: a tiny request claiming a 20M-symbol
// alphabet with no cells is refused as a bad request before the node
// allocates anything of alphabet size.
func TestServerRejectsOversizedAlphabet(t *testing.T) {
	seqs, _, _ := workload(t, 13, 20, 6)
	db := seqdb.NewMemDB(seqs)
	body := []byte(`{"schema":"lsp-shard-probe/v1","shards":1,"shard":0,"total":20,"block":16,"m":20000000,"cells":[],"patterns":[[0]]}`)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	rec := postProbe(db, body)
	runtime.ReadMemStats(&after)
	if rec.Code != http.StatusBadRequest || reasonOf(rec) != shardrpc.ReasonBadRequest {
		t.Fatalf("got %d %q, want 400 %s", rec.Code, rec.Body.String(), shardrpc.ReasonBadRequest)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Errorf("rejecting the request allocated %d bytes, want < 1 MiB", alloc)
	}
}

// fuzzDB is the fuzz target's store: 40 sequences over a 4-symbol alphabet
// (two shards of 16-sequence probe blocks), matching the committed corpus.
func fuzzDB() *seqdb.MemDB {
	seqs := make([][]pattern.Symbol, 40)
	for i := range seqs {
		seqs[i] = make([]pattern.Symbol, 8)
		for j := range seqs[i] {
			seqs[i][j] = pattern.Symbol((i*7 + j*3) % 4)
		}
	}
	return seqdb.NewMemDB(seqs)
}

// FuzzShardProbe posts arbitrary bodies to a node's real handler over an
// in-memory store: nothing may panic, and every non-2xx response must carry
// a machine-readable reason. The corpus seeds a valid request, a layout
// mismatch and an oversized alphabet.
func FuzzShardProbe(f *testing.F) {
	db := fuzzDB()
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := postProbe(db, body)
		if rec.Code/100 != 2 && reasonOf(rec) == "" {
			t.Fatalf("status %d without a reason: %q", rec.Code, rec.Body.String())
		}
	})
}
