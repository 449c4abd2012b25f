package core

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"primacy/internal/datagen"
	"primacy/internal/precond"
)

// digestsPath holds the SHA-256 of the container the codec writes for every
// datagen spec under each solver and selection mode in digestCases. The
// file is committed, not rebuilt in CI: refactors of the codec or of the
// layers beneath it must leave the wire bytes where they were.
var digestsPath = filepath.Join("testdata", "digests.txt")

const (
	// digestValues float64 values at digestChunk bytes per chunk gives every
	// container at least two chunks, so index reuse and chunk framing are
	// covered as well as the single-chunk path.
	digestValues = 48 << 10
	digestChunk  = 128 << 10
)

type digestCase struct {
	solver string
	mode   precond.SelectionMode
}

var digestCases = []digestCase{
	{"zlib", precond.Fixed},
	{"zlib", precond.APosteriori},
	{"lzo", precond.Fixed},
	{"lzo", precond.APosteriori},
}

// datasetDigests compresses every spec under every digest case and returns
// one "spec solver mode sha256" line per container, in a fixed order.
func datasetDigests(t *testing.T) []string {
	t.Helper()
	var lines []string
	for _, spec := range datagen.Specs() {
		raw := spec.GenerateBytes(digestValues)
		for _, dc := range digestCases {
			opts := Options{Solver: dc.solver, ChunkBytes: digestChunk}
			opts.Precond.Selection = dc.mode
			enc, err := Compress(raw, opts)
			if err != nil {
				t.Fatalf("%s %s %v: %v", spec.Name, dc.solver, dc.mode, err)
			}
			sum := sha256.Sum256(enc)
			lines = append(lines, fmt.Sprintf("%s %s %v %s", spec.Name, dc.solver, dc.mode, hex.EncodeToString(sum[:])))
		}
	}
	return lines
}

// TestWriteDatasetDigests regenerates testdata/digests.txt when
// PRIMACY_WRITE_FIXTURES=1. Regenerate only for a deliberate change of the
// wire format, never to make TestDatasetDigestsPinned pass after a refactor.
func TestWriteDatasetDigests(t *testing.T) {
	if os.Getenv("PRIMACY_WRITE_FIXTURES") != "1" {
		t.Skip("set PRIMACY_WRITE_FIXTURES=1 to regenerate committed fixtures")
	}
	body := strings.Join(datasetDigests(t), "\n") + "\n"
	if err := os.WriteFile(digestsPath, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestDatasetDigestsPinned checks that the codec still writes, byte for
// byte, the containers whose digests are committed in testdata/digests.txt.
func TestDatasetDigestsPinned(t *testing.T) {
	f, err := os.Open(digestsPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			want = append(want, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	got := datasetDigests(t)
	if len(got) != len(want) {
		t.Fatalf("%d digests, %s holds %d", len(got), digestsPath, len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("container digest changed:\n got %s\nwant %s", got[i], want[i])
		}
	}
}
