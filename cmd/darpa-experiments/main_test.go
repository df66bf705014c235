package main

import (
	"maps"
	"strings"
	"testing"
)

func TestSelectSections(t *testing.T) {
	ids := []string{"Section III-A", "Table V", "Table VI", "Table VII", "Table VIII", "Figure 8"}
	for _, tc := range []struct {
		only string
		want []string
	}{
		{"", ids},
		{" ", ids},
		{"Table V", []string{"Table V"}},
		{"table vi", []string{"Table VI"}},
		{"Table V, figure 8", []string{"Table V", "Figure 8"}},
		{"TABLE VIII,Table VIII", []string{"Table VIII"}},
	} {
		got, err := selectSections(ids, tc.only)
		if err != nil {
			t.Fatalf("%q: %v", tc.only, err)
		}
		want := map[string]bool{}
		for _, id := range tc.want {
			want[id] = true
		}
		if !maps.Equal(got, want) {
			t.Errorf("%q selected %v, want %v", tc.only, got, want)
		}
	}
	for _, only := range []string{"Table", "Table IX", "Table V,", "III-A"} {
		_, err := selectSections(ids, only)
		if err == nil {
			t.Errorf("%q matched a section", only)
		} else if !strings.Contains(err.Error(), "Table VIII, Figure 8") {
			t.Errorf("%q: error %q does not list the sections", only, err)
		}
	}
}
