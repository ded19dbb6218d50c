package fake

import (
	"encoding/json"
	"sort"
)

// The package imports encoding/json, so every function is in detlint's
// export scope regardless of call-graph reachability.

type report struct {
	Names []string
}

func render(counts map[string]int) []byte {
	var r report
	for name := range counts { // want "order-nondeterministic"
		r.Names = append(r.Names, name)
	}
	out, _ := json.Marshal(r)
	return out
}

func renderSorted(counts map[string]int) []byte {
	names := make([]string, 0, len(counts))
	for name := range counts { // OK: collect-then-sort
		names = append(names, name)
	}
	sort.Strings(names)
	out, _ := json.Marshal(report{Names: names})
	return out
}
