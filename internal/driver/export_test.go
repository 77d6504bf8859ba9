package driver

import (
	"hash/fnv"
	"sort"
	"strings"
)

// EnvHashScan is EnvHash as first written: a scan of every qualified
// variable of the program per call. The grouped EnvHash must match it bit
// for bit, since stored warm-start clauses carry its values.
func (p *Program) EnvHashScan(methods []string) uint64 {
	want := make(map[string]bool, len(methods))
	for _, m := range methods {
		want[m] = true
	}
	var qvs []string
	for qv := range p.varPts {
		if i := strings.Index(qv, "::"); i >= 0 && want[qv[:i]] {
			qvs = append(qvs, qv)
		}
	}
	sort.Strings(qvs)
	h := fnv.New64a()
	var labels []string
	for _, qv := range qvs {
		h.Write([]byte(qv))
		h.Write([]byte{0})
		labels = labels[:0]
		for _, id := range p.varPts[qv].Elems() {
			labels = append(labels, p.PT.Sites.Value(id))
		}
		sort.Strings(labels)
		for _, l := range labels {
			h.Write([]byte(l))
			h.Write([]byte{1})
		}
		h.Write([]byte{2})
	}
	return h.Sum64()
}
