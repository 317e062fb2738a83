package main

import (
	"strings"
	"testing"
)

// TestParseFigs: every listed name and alias parses, case and spacing
// aside; any unknown name — a typo, a retired mode, an empty entry — is
// an error that lists the valid names, never a run that does nothing.
func TestParseFigs(t *testing.T) {
	want, err := parseFigs(strings.Join(figNames, ","))
	if err != nil || len(want) != len(figNames) {
		t.Fatalf("every listed name: %v, %d of %d parsed", err, len(want), len(figNames))
	}
	want, err = parseFigs(" 12 ,16,HEADLINE")
	if err != nil || !want["12"] || !want["16"] || !want["headline"] || len(want) != 3 {
		t.Fatalf("parseFigs(\" 12 ,16,HEADLINE\") = %v, %v", want, err)
	}
	for _, bad := range []string{"99", "12,16x", "bench", "exact", "12,", ""} {
		_, err := parseFigs(bad)
		if err == nil {
			t.Errorf("parseFigs(%q) accepted", bad)
			continue
		}
		if !strings.Contains(err.Error(), "table2, 11, gn") {
			t.Errorf("parseFigs(%q): error %q does not list the valid names", bad, err)
		}
	}
}
