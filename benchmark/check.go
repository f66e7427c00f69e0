package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"fpinterop/fpis"
	"fpinterop/internal/gallery"
	"fpinterop/internal/match"
)

// checker decides whether an answer is right without asking the system
// under test: it scores the enrolled template against the probe with
// the library's matcher in this process. The check is independent of
// topology — a candidate is correct wherever it was computed.
type checker struct {
	fx *fixture
}

// score reproduces the similarity the service must have reported for
// (enrolled id, probe).
func (c *checker) score(sess *match.Session, id string, probe *fpis.Template) (float64, error) {
	tpl, ok := c.fx.byID[id]
	if !ok {
		return 0, fmt.Errorf("candidate %q was never enrolled by this run", id)
	}
	res, err := sess.Match(tpl, probe)
	return res.Score, err
}

// identifyProblem returns why an identify answer is wrong, or nil.
func (c *checker) identifyProblem(sess *match.Session, r *opResult) error {
	if len(r.cands) != topK {
		return fmt.Errorf("%d candidates, want %d", len(r.cands), topK)
	}
	probe := c.fx.probes[r.probe].tpl
	for i, cand := range r.cands {
		want, err := c.score(sess, cand.ID, probe)
		if err != nil {
			return err
		}
		if math.Float64bits(want) != math.Float64bits(cand.Score) {
			return fmt.Errorf("candidate %q score %v, in-process match gives %v", cand.ID, cand.Score, want)
		}
		if i > 0 {
			prev := r.cands[i-1]
			if prev.Score < cand.Score || (prev.Score == cand.Score && prev.ID >= cand.ID) {
				return fmt.Errorf("candidates %d and %d out of order", i-1, i)
			}
		}
	}
	return nil
}

func (c *checker) verifyProblem(sess *match.Session, r *opResult) error {
	want, err := c.score(sess, r.id, c.fx.probes[r.probe].tpl)
	if err != nil {
		return err
	}
	if math.Float64bits(want) != math.Float64bits(r.score) {
		return fmt.Errorf("verify %q score %v, in-process match gives %v", r.id, r.score, want)
	}
	return nil
}

// checkAll marks every answered identify and verify whose answer is
// wrong and returns the first few reasons. It runs after the phases it
// judges, so its matcher work never competes with the servers.
func (c *checker) checkAll(results []opResult) []string {
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		problems []string
		workers  = runtime.GOMAXPROCS(0)
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess := match.NewSession(nil)
			for i := w; i < len(results); i += workers {
				r := &results[i]
				if r.err != nil {
					continue
				}
				var err error
				switch r.kind {
				case opIdentify:
					err = c.identifyProblem(sess, r)
				case opVerify:
					err = c.verifyProblem(sess, r)
				}
				if err != nil {
					r.wrong = true
					mu.Lock()
					if len(problems) < 5 {
						problems = append(problems, fmt.Sprintf("%s probe %d: %v", r.kind, r.probe, err))
					}
					mu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()
	return problems
}

// rank1 counts the mated identifies among results and how many of them
// put the mate first.
func (c *checker) rank1(results []opResult) (hits, mated int) {
	for i := range results {
		r := &results[i]
		if r.kind != opIdentify || r.err != nil {
			continue
		}
		mate := c.fx.probes[r.probe].mate
		if mate == "" {
			continue
		}
		mated++
		if len(r.cands) > 0 && r.cands[0].ID == mate {
			hits++
		}
	}
	return hits, mated
}

// referenceSample is how many identify answers checkReference compares:
// each costs a full exhaustive scan in this process.
const referenceSample = 32

// checkReference compares whole candidate lists against an in-process
// store holding the same gallery. It only applies where the gallery is
// static and the served search is exhaustive, so that the served top-k
// has exactly one right value.
func (c *checker) checkReference(ctx context.Context, results []opResult) (problems []string, err error) {
	ref := gallery.New(nil)
	for _, e := range c.fx.base {
		if err := ref.Enroll(e.ID, e.DeviceID, e.Template); err != nil {
			return nil, err
		}
	}
	checked := 0
	for i := range results {
		r := &results[i]
		if r.kind != opIdentify || r.err != nil {
			continue
		}
		if checked == referenceSample {
			break
		}
		checked++
		want, _, err := ref.IdentifyDetailedContext(ctx, c.fx.probes[r.probe].tpl, topK)
		if err != nil {
			return problems, err
		}
		for j := range want {
			if j >= len(r.cands) || r.cands[j].ID != want[j].ID ||
				math.Float64bits(r.cands[j].Score) != math.Float64bits(want[j].Score) {
				r.wrong = true
				problems = append(problems, fmt.Sprintf("identify probe %d: rank %d differs from the reference store", r.probe, j+1))
				break
			}
		}
	}
	return problems, nil
}

// audit asks a restarted deployment about every write it acknowledged
// before it was killed: an ID whose last acked write was an enrollment
// must still verify against its own template, and one whose last acked
// write was a removal must still be gone.
func (c *checker) audit(ctx context.Context, svc fpis.Service, results []opResult) (checked, lost int, problems []string) {
	var writes []*opResult
	for i := range results {
		if r := &results[i]; r.err == nil && (r.kind == opEnroll || r.kind == opRemove) {
			writes = append(writes, r)
		}
	}
	sort.Slice(writes, func(i, j int) bool { return writes[i].done < writes[j].done })
	var ids []string
	last := make(map[string]opKind)
	for _, r := range writes {
		if _, seen := last[r.id]; !seen {
			ids = append(ids, r.id)
		}
		last[r.id] = r.kind
	}
	sess := match.NewSession(nil)
	for _, id := range ids {
		checked++
		tpl := c.fx.byID[id]
		res, err := svc.Verify(ctx, id, tpl)
		var problem string
		switch {
		case last[id] == opRemove && !errors.Is(err, fpis.ErrNotFound):
			problem = fmt.Sprintf("acked remove of %q resurrected (verify err = %v)", id, err)
		case last[id] == opEnroll && err != nil:
			problem = fmt.Sprintf("acked enroll of %q lost: %v", id, err)
		case last[id] == opEnroll:
			want, merr := sess.Match(tpl, tpl)
			if merr != nil || math.Float64bits(want.Score) != math.Float64bits(res.Score) {
				problem = fmt.Sprintf("acked enroll of %q came back with another template", id)
			}
		}
		if problem != "" {
			lost++
			if len(problems) < 5 {
				problems = append(problems, problem)
			}
		}
	}
	return checked, lost, problems
}
