package engine_test

import (
	"bufio"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bypassyield/internal/engine"
	"bypassyield/internal/sqlparse"
	"bypassyield/internal/workload"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite golden files")

const (
	streamSeed       = 4242
	streamStatements = 2000
)

// streamGolden is the recorded engine output for the seeded stream.
const streamGolden = "testdata/stream_golden.txt"

// TestStreamDifferential runs 2000 seeded workload statements through
// the engine at two sampling factors and compares each result's
// cardinality, yield, column names and a digest of every materialized
// tuple bit against a golden file. It pins the engine's observable
// output across changes to how execution finds column data.
func TestStreamDifferential(t *testing.T) {
	p := workload.EDRProfile()
	p.Seed = streamSeed
	s, err := workload.NewStream(p)
	if err != nil {
		t.Fatal(err)
	}
	stmts := make([]string, streamStatements)
	for i := range stmts {
		stmts[i] = s.Next().SQL
	}
	var got []string
	for _, sample := range []int64{1000, 100000} {
		db, err := engine.Open(s.Schema(), engine.Config{SampleEvery: sample, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		for i, sql := range stmts {
			got = append(got, fmt.Sprintf("%d %d %s", sample, i, resultLine(db, sql)))
		}
	}

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(streamGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(streamGolden, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(streamGolden)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to create it)", err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden has %d lines, run produced %d", len(want), len(got))
	}
	bad := 0
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("statement %q:\n got  %s\n want %s", stmts[i%streamStatements], got[i], want[i])
			if bad++; bad == 10 {
				t.Fatal("too many mismatches")
			}
		}
	}
}

// resultLine renders one statement's outcome: the execution error, or
// rows, bytes, a column-name digest and a tuple digest.
func resultLine(db *engine.DB, sql string) string {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return "parse-error " + err.Error()
	}
	res, err := db.Execute(stmt)
	if err != nil {
		return "error " + err.Error()
	}
	cols := fnv.New64a()
	for _, c := range res.Columns {
		cols.Write([]byte(c))
		cols.Write([]byte{0})
	}
	tuples := fnv.New64a()
	var buf [8]byte
	for _, tup := range res.Tuples {
		binary.LittleEndian.PutUint64(buf[:], uint64(len(tup)))
		tuples.Write(buf[:])
		for _, v := range tup {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			tuples.Write(buf[:])
		}
	}
	return fmt.Sprintf("rows=%d bytes=%d cols=%d:%016x tuples=%d:%016x",
		res.Rows, res.Bytes, len(res.Columns), cols.Sum64(), len(res.Tuples), tuples.Sum64())
}
