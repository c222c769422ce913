package main

import (
	"bufio"
	"fmt"
	"math"
	"sort"
	"strings"

	"tuffy"
	"tuffy/internal/datagen"
	"tuffy/internal/mln"
)

// inputs are a workload's generated data rendered as text, the form a user
// hands to tuffyd: the program, the base evidence, the update stream, and
// the evidence after the whole stream (for the fresh reference engine).
// Nothing else from the generator reaches the engine.
type inputs struct {
	program       string
	evidence      string
	deltas        string
	finalEvidence string
	// evidenceAt is the evidence after the stream's first n deltas, for
	// each n an in-memory restart reopens at (the start of every round).
	evidenceAt map[int]string

	evidenceTuples, domainConsts int
}

// makeInputs generates the workload's dataset and its fixed update stream
// and renders both to text. The rendered program and evidence are parsed
// back and compared with the generator's, so a rendering bug fails here,
// before any timing.
func makeInputs(w workload, tiny bool) (*inputs, error) {
	ds := w.dataset(tiny)
	in := &inputs{evidenceTuples: ds.Ev.Total()}
	var err error
	if in.program, err = renderProgram(ds.Prog); err != nil {
		return nil, err
	}
	in.evidence = renderEvidence(ds.Prog, ds.Ev)
	for _, d := range ds.Prog.Domains {
		in.domainConsts += d.Size()
	}
	if err := checkRoundTrip(ds, in.program, in.evidence); err != nil {
		return nil, err
	}

	// The update stream: each delta is drawn against the evidence the
	// previous ones left, so every op is admissible when it is applied.
	in.evidenceAt = map[int]string{}
	var b strings.Builder
	for i := 0; i < streamLen(w); i++ {
		if !w.Durable && roundStart(w, i) {
			in.evidenceAt[i] = renderEvidence(ds.Prog, ds.Ev)
		}
		d := datagen.RandomDelta(ds, w.UpdatePred, w.OpsPerUpdate, w.DataSeed*1_000_003+int64(i))
		if _, err := ds.Ev.Apply(d); err != nil {
			return nil, fmt.Errorf("update stream delta %d: %w", i, err)
		}
		fmt.Fprintf(&b, "# delta %d\n", i)
		for _, op := range d.Ops {
			sign, neg := "+ ", ""
			if op.Truth == mln.Unknown {
				sign = "- "
			} else if op.Truth == mln.False {
				neg = "!"
			}
			b.WriteString(sign + neg + atomText(ds.Prog, op.Pred, op.Args) + "\n")
		}
	}
	in.deltas = b.String()
	in.finalEvidence = renderEvidence(ds.Prog, ds.Ev)
	return in, nil
}

// renderProgram writes domain declarations, predicate declarations and
// clauses in the parser's surface syntax.
func renderProgram(p *mln.Program) (string, error) {
	var b strings.Builder
	names := make([]string, 0, len(p.Domains))
	for n := range p.Domains {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		consts := p.Domains[n].Sorted()
		parts := make([]string, len(consts))
		for i, c := range consts {
			parts[i] = p.Syms.Name(c)
		}
		fmt.Fprintf(&b, "%s = {%s}\n", n, strings.Join(parts, ", "))
	}
	for _, pr := range p.Preds {
		if pr.Closed {
			b.WriteByte('*')
		}
		fmt.Fprintf(&b, "%s(%s)\n", pr.Name, strings.Join(pr.Args, ", "))
	}
	for _, c := range p.Clauses {
		line, err := clauseText(p, c)
		if err != nil {
			return "", err
		}
		b.WriteString(line + "\n")
	}
	return b.String(), nil
}

// clauseText renders a clause as a weighted disjunction, or — when it has
// existential variables, which the parser only accepts in a rule head — as
// "body => EXIST v head" with the leading negated literals as the body.
func clauseText(p *mln.Program, c *mln.Clause) (string, error) {
	w := "inf"
	if !math.IsInf(c.Weight, 1) {
		w = fmt.Sprintf("%g", c.Weight)
	}
	lits := make([]string, len(c.Lits))
	for i, l := range c.Lits {
		lits[i] = l.Format(p.Syms)
	}
	if len(c.Exist) == 0 {
		return w + " " + strings.Join(lits, " v "), nil
	}
	n := 0
	for n < len(c.Lits) && c.Lits[n].Negated && !c.Lits[n].IsBuiltinEq() {
		n++
	}
	if n == 0 || n == len(c.Lits) {
		return "", fmt.Errorf("clause %d: cannot render existential clause %s", c.ID, c.Format(p.Syms))
	}
	body := make([]string, n)
	for i := range body {
		body[i] = strings.TrimPrefix(lits[i], "!")
	}
	return fmt.Sprintf("%s %s => EXIST %s %s", w, strings.Join(body, ", "),
		strings.Join(c.Exist, ","), strings.Join(lits[n:], " v ")), nil
}

func atomText(p *mln.Program, pred *mln.Predicate, args []int32) string {
	parts := make([]string, len(args))
	for i, a := range args {
		parts[i] = p.Syms.Name(a)
	}
	return pred.Name + "(" + strings.Join(parts, ", ") + ")"
}

// renderEvidence writes one ground literal per line, predicates in
// declaration order and tuples in the evidence's deterministic order.
func renderEvidence(p *mln.Program, ev *mln.Evidence) string {
	var b strings.Builder
	for _, pr := range p.Preds {
		ev.ForEach(pr, func(args []int32, t mln.Truth) {
			if t == mln.False {
				b.WriteByte('!')
			}
			b.WriteString(atomText(p, pr, args) + "\n")
		})
	}
	return b.String()
}

// checkRoundTrip parses the rendered text and compares it with the
// generated dataset: every clause must format identically and every
// predicate must carry the same evidence.
func checkRoundTrip(ds *datagen.Dataset, program, evidence string) error {
	prog, err := tuffy.LoadProgramString(program)
	if err != nil {
		return fmt.Errorf("rendered program does not parse: %w", err)
	}
	ev, err := tuffy.LoadEvidenceString(prog, evidence)
	if err != nil {
		return fmt.Errorf("rendered evidence does not parse: %w", err)
	}
	if len(prog.Clauses) != len(ds.Prog.Clauses) {
		return fmt.Errorf("rendered program has %d clauses, generator %d", len(prog.Clauses), len(ds.Prog.Clauses))
	}
	for i, c := range prog.Clauses {
		if got, want := c.Format(prog.Syms), ds.Prog.Clauses[i].Format(ds.Prog.Syms); got != want {
			return fmt.Errorf("clause %d renders back as %q, want %q", i, got, want)
		}
	}
	for _, pr := range ds.Prog.Preds {
		got, ok := prog.Predicate(pr.Name)
		if !ok || ev.Count(got) != ds.Ev.Count(pr) {
			return fmt.Errorf("predicate %s: evidence does not round-trip", pr.Name)
		}
	}
	for n, d := range ds.Prog.Domains {
		if prog.Domain(n).Size() != d.Size() {
			return fmt.Errorf("domain %s: %d constants after parsing, want %d", n, prog.Domain(n).Size(), d.Size())
		}
	}
	return nil
}

// parseDeltas reads the update stream against a parsed program. Each
// "# delta" header starts a delta; "+ atom" upserts it true, "+ !atom"
// false, and "- atom" retracts it.
func parseDeltas(prog *mln.Program, text string) ([]mln.Delta, error) {
	var out []mln.Delta
	sc := bufio.NewScanner(strings.NewReader(text))
	for line := 1; sc.Scan(); line++ {
		s := strings.TrimSpace(sc.Text())
		switch {
		case s == "":
			continue
		case strings.HasPrefix(s, "#"):
			out = append(out, mln.Delta{})
			continue
		case len(out) == 0:
			return nil, fmt.Errorf("delta line %d: op before the first delta header", line)
		}
		remove := strings.HasPrefix(s, "-")
		if !remove && !strings.HasPrefix(s, "+") {
			return nil, fmt.Errorf("delta line %d: want + or -, got %q", line, s)
		}
		s = strings.TrimSpace(s[1:])
		truth := mln.True
		if strings.HasPrefix(s, "!") {
			truth, s = mln.False, s[1:]
		}
		lp, rp := strings.IndexByte(s, '('), strings.LastIndexByte(s, ')')
		if lp <= 0 || rp < lp {
			return nil, fmt.Errorf("delta line %d: malformed atom %q", line, s)
		}
		pred, ok := prog.Predicate(s[:lp])
		if !ok {
			return nil, fmt.Errorf("delta line %d: unknown predicate %q", line, s[:lp])
		}
		names := strings.Split(s[lp+1:rp], ",")
		if len(names) != pred.Arity() {
			return nil, fmt.Errorf("delta line %d: %s wants %d arguments", line, pred.Name, pred.Arity())
		}
		args := make([]int32, len(names))
		for i, n := range names {
			id, ok := prog.Syms.Lookup(strings.TrimSpace(n))
			if !ok {
				return nil, fmt.Errorf("delta line %d: unknown constant %q", line, n)
			}
			args[i] = id
		}
		d := &out[len(out)-1]
		if remove {
			d.Remove(pred, args)
		} else {
			d.Upsert(pred, args, truth)
		}
	}
	return out, sc.Err()
}
