package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"

	"mddm/internal/casestudy"
	"mddm/internal/core"
	"mddm/internal/query"
	"mddm/internal/temporal"
)

// answer is the part of a /query response the oracle compares: the
// header and the rows, in the order served.
type answer struct {
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
}

// canonical is the byte form two answers are compared in.
func (a answer) canonical() []byte {
	b, _ := json.Marshal(a) // strings only: cannot fail
	return b
}

// decodeAnswer reads a served /query body.
func decodeAnswer(body []byte) (answer, error) {
	var a answer
	if err := json.Unmarshal(body, &a); err != nil {
		return answer{}, fmt.Errorf("decoding answer: %w", err)
	}
	if a.Columns == nil {
		return answer{}, fmt.Errorf("answer has no columns: %.200s", body)
	}
	return a, nil
}

// sameAnswer compares a served body with the expected answer byte for
// byte; the error says what differs.
func sameAnswer(body []byte, want answer) error {
	got, err := decodeAnswer(body)
	if err != nil {
		return err
	}
	g, w := got.canonical(), want.canonical()
	if !bytes.Equal(g, w) {
		return &mismatchError{got: g, want: w}
	}
	return nil
}

// mismatchError is a served answer that differs from the expected one.
type mismatchError struct{ got, want []byte }

func (e *mismatchError) Error() string {
	return fmt.Sprintf("answer differs:\n  served %.300s\n  expected %.300s", e.got, e.want)
}

// refDate resolves NOW, as mdserve's -ref default does.
var refDate = temporal.MustDate("01/01/1999")

// generate builds the MO mdserve -gen n -seed seed serves.
func generate(n int, seed int64) (*core.MO, error) {
	cfg := casestudy.DefaultGen()
	cfg.Patients = n
	cfg.Seed = seed
	return casestudy.Generate(cfg)
}

// oracle returns the algebra's answers (query.Exec on an identically
// generated MO) to oracleQueries. Answers are cached under dir (see
// oracleKey), so each data set pays the algebra once per program version.
func oracle(dir string, seed int64) ([]answer, error) {
	key, err := oracleKey(seed)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(dir, "oracle-"+key+".json")
	if b, err := os.ReadFile(path); err == nil {
		var out []answer
		if json.Unmarshal(b, &out) == nil && len(out) == len(oracleQueries) {
			return out, nil
		}
	}
	m, err := generate(facts, seed)
	if err != nil {
		return nil, fmt.Errorf("oracle: generating: %w", err)
	}
	cat := query.Catalog{moName: m}
	out := make([]answer, len(oracleQueries))
	errs := make([]error, len(oracleQueries))
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.NumCPU())
	for i, q := range oracleQueries {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, q string) {
			defer wg.Done()
			defer func() { <-sem }()
			res, err := query.Exec(q, cat, refDate)
			if err != nil {
				errs[i] = fmt.Errorf("oracle: %s: %w", q, err)
				return
			}
			// Round-trip through JSON so nil and empty row sets compare as
			// the server encodes them.
			b, _ := json.Marshal(answer{Columns: res.Columns, Rows: res.Rows})
			errs[i] = json.Unmarshal(b, &out[i])
		}(i, q)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	b, _ := json.Marshal(out)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return nil, fmt.Errorf("oracle: caching: %w", err)
	}
	return out, nil
}

// oracleKey identifies an oracle by what it depends on: the program's
// Go sources and module file (the benchmark runs from the repository
// root; its own directory is left out), the Go version, the data seed
// and the queries.
func oracleKey(seed int64) (string, error) {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "benchmark" || strings.HasPrefix(d.Name(), ".") && path != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && path != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\x00", path)
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "", fmt.Errorf("oracle: hashing the program sources: %w", err)
	}
	fmt.Fprintf(h, "|%s|%d|%d|%q", runtime.Version(), seed, facts, oracleQueries)
	return hex.EncodeToString(h.Sum(nil))[:24], nil
}
