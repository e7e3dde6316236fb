package experiments

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// The behaviour lock: a SHA-256 of every determinism scenario's
// sequential fingerprint is committed in goldenFile, so a change that
// moves results is caught even when every shard count moves with it. A
// digest change must be an intended behaviour change; rewrite the file
// with
//
//	go test ./internal/experiments -run ShardDeterminism -update
//
// and explain the change where it is committed.

var update = flag.Bool("update", false, "rewrite the committed fingerprint digests")

const goldenFile = "testdata/fingerprints.sha256"

var goldenMu sync.Mutex

// checkGolden compares the digest of fingerprint fp against the committed
// one for name, or records it under -update. Race builds run a shorter
// window (raceEnabled), so their fingerprints have no committed digest
// and only the shard-equality check applies.
func checkGolden(t *testing.T, name string, fp []byte) {
	t.Helper()
	if raceEnabled {
		return
	}
	sum := sha256.Sum256(fp)
	got := hex.EncodeToString(sum[:])
	goldenMu.Lock()
	defer goldenMu.Unlock()
	digests, err := readGolden()
	if err != nil && !(*update && os.IsNotExist(err)) {
		t.Fatal(err)
	}
	if *update {
		digests[name] = got
		if err := writeGolden(digests); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, ok := digests[name]
	switch {
	case !ok:
		t.Errorf("no committed digest for %q in %s (run with -update)", name, goldenFile)
	case want != got:
		t.Errorf("fingerprint of %q changed: digest %s, committed %s", name, got, want)
	}
}

// readGolden parses goldenFile, one "digest  name" line per scenario (the
// sha256sum layout).
func readGolden() (map[string]string, error) {
	digests := map[string]string{}
	f, err := os.Open(goldenFile)
	if err != nil {
		return digests, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		sum, name, ok := strings.Cut(sc.Text(), "  ")
		if !ok {
			return nil, fmt.Errorf("%s: malformed line %q", goldenFile, sc.Text())
		}
		digests[name] = sum
	}
	return digests, sc.Err()
}

func writeGolden(digests map[string]string) error {
	names := make([]string, 0, len(digests))
	for name := range digests {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		fmt.Fprintf(&b, "%s  %s\n", digests[name], name)
	}
	if err := os.MkdirAll(filepath.Dir(goldenFile), 0o755); err != nil {
		return err
	}
	return os.WriteFile(goldenFile, []byte(b.String()), 0o644)
}
