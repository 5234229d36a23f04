package support

import (
	"testing"

	"repro/internal/pattern"
	"repro/internal/seqdb"
)

// staleLen delivers the true stream but lies about Len() — a scanner whose
// metadata is stale or an estimate. DB must average over the delivered
// count.
type staleLen struct {
	*seqdb.MemDB
	reported int
}

func (s *staleLen) Len() int { return s.reported }

func TestDBAveragesOverDeliveredSequences(t *testing.T) {
	ps := []pattern.Pattern{
		pattern.MustNew(d2, d1),
		pattern.MustNew(d3),
	}
	want, err := DB(fig4DB(), ps)
	if err != nil {
		t.Fatal(err)
	}
	for _, reported := range []int{8, 1, 0} {
		got, err := DB(&staleLen{fig4DB(), reported}, ps)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("Len=%d pattern %v: got %v, want %v", reported, ps[i], got[i], want[i])
			}
		}
	}
}
