package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"sort"
	"strings"
)

// goldens maps an op's canonical config to the SHA-256 of its rendered
// /v1/simulate body. The body carries the simulated elapsed time, the
// details map, the fault report and the breakdown, so the digest
// covers every simulated output.
type goldens map[string]string

// goldenPath is the committed golden file, relative to the checkout
// root the benchmark runs from.
const goldenPath = "howbench/goldens.txt"

func digest(body []byte) string {
	sum := sha256.Sum256(body)
	return hex.EncodeToString(sum[:])
}

// loadGoldens reads "<digest> <canonical config>" lines.
func loadGoldens(path string) (goldens, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("goldens: %w", err)
	}
	defer f.Close()
	g := goldens{}
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		text := sc.Text()
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		d, canon, ok := strings.Cut(text, " ")
		if !ok || len(d) != sha256.Size*2 {
			return nil, fmt.Errorf("goldens: %s:%d: malformed line", path, line)
		}
		g[canon] = d
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("goldens: %w", err)
	}
	return g, nil
}

// check reports whether body is the golden output of s.
func (g goldens) check(s *spec, body []byte) error {
	want, ok := g[s.canonical]
	if !ok {
		return fmt.Errorf("no golden for %s", s.canonical)
	}
	if got := digest(body); got != want {
		return fmt.Errorf("output digest %.12s != golden %.12s for %s", got, want, s.canonical)
	}
	return nil
}

// covers reports the first spec without a golden, if any.
func (g goldens) covers(specs []*spec) error {
	for _, s := range specs {
		if _, ok := g[s.canonical]; !ok {
			return fmt.Errorf("goldens: no digest for %s; regenerate with --regen-goldens", s.canonical)
		}
	}
	return nil
}

// writeGoldens stores one line per entry, sorted by config.
func writeGoldens(path string, g goldens) error {
	keys := make([]string, 0, len(g))
	for k := range g {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	sb.WriteString("# howbench goldens: <sha256 of the /v1/simulate body> <canonical config>\n")
	sb.WriteString("# Regenerate only on purpose: go run ./howbench --regen-goldens\n")
	for _, k := range keys {
		fmt.Fprintf(&sb, "%s %s\n", g[k], k)
	}
	return os.WriteFile(path, []byte(sb.String()), 0o644)
}
