package main

import (
	"slices"
	"sort"
	"strings"
	"testing"
)

func TestCheckSections(t *testing.T) {
	for _, tc := range []struct {
		name  string
		only  string
		given []string
		want  []string // sorted; nil when an error is expected
		err   string   // substring of the error
	}{
		{name: "all", want: sorted(sections)},
		{name: "all-with-k", given: []string{"k"}, want: sorted(sections)},
		{name: "trailing-comma", only: "table1,", want: []string{"table1"}},
		{name: "spaces", only: " fig12 , table2 ", given: []string{"k", "iters"}, want: []string{"fig12", "table2"}},
		{name: "unknown", only: "tabel2", err: `unknown section "tabel2" (valid: table1,fig12,table2,table3,table4,fig14,fig13)`},
		{name: "unknown-among-known", only: "table2,fig99", err: `unknown section "fig99"`},
		{name: "k-with-fig13", only: "fig13", given: []string{"k"}, err: "fig13 runs its own k grid"},
		{name: "k-with-fig13-and-table3", only: "fig13,table3", given: []string{"k"}, want: []string{"fig13", "table3"}},
		{name: "iters-with-fig13", only: "fig13", given: []string{"iters", "workers", "metrics"}, want: []string{"fig13"}},
		{name: "k-with-table1", only: "table1", given: []string{"k"}, err: "does not use -k"},
		{name: "iters-with-table1", only: "table1", given: []string{"iters"}, err: "does not use -iters"},
		{name: "warm-dir-with-table1", only: "table1", given: []string{"warm-dir"}, err: "does not use -warm-dir"},
		{name: "profile-with-table1", only: "table1", given: []string{"cpuprofile", "memprofile"}, want: []string{"table1"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			given := map[string]bool{}
			for _, f := range tc.given {
				given[f] = true
			}
			got, err := checkSections(tc.only, given)
			if tc.err != "" {
				if err == nil || !strings.Contains(err.Error(), tc.err) {
					t.Fatalf("checkSections(%q, %v) = %v, %v; want error containing %q", tc.only, tc.given, got, err, tc.err)
				}
				return
			}
			if err != nil {
				t.Fatalf("checkSections(%q, %v): %v", tc.only, tc.given, err)
			}
			var keys []string
			for k := range got {
				keys = append(keys, k)
			}
			if keys = sorted(keys); !slices.Equal(keys, tc.want) {
				t.Fatalf("checkSections(%q, %v) selects %v, want %v", tc.only, tc.given, keys, tc.want)
			}
		})
	}
}

func sorted(s []string) []string {
	s = slices.Clone(s)
	sort.Strings(s)
	return s
}
