package campaign

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"unicode"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/sched"
)

// Size and count limits enforced by the strict parser: campaigns are
// data that may come from untrusted files (and from the fuzzer), so
// every axis is bounded before any compilation work happens.
const (
	maxGraphN        = 4096
	maxSizesPerLine  = 512
	maxAxisEntries   = 64
	maxFaultK        = 4096
	maxNameLen       = 128
	maxSuffixRounds  = 1 << 20
	defaultSeed      = 2009
	defaultTrials    = 5
	defaultMaxSteps  = 1_000_000
	maxScalarValue   = 1<<31 - 1 // trials / max-steps / suffix-rounds ceiling (fits int32)
	defaultStopMin   = 5
	defaultStopMax   = 100
	maxTemplateLen   = 512
	maxCampaignLines = 4096
)

// keyPlaceholders lists the substitutions available in a `key` template.
var keyPlaceholders = []string{
	"{graph}", "{n}", "{protocol}", "{daemon}",
	"{adversary}", "{k}", "{schedule}", "{count}", "{suffix}",
	"{churn}", "{churn-k}", "{churn-inject}",
}

// directiveNames lists every directive the grammar accepts, in the
// canonical order of the grammar doc; the unknown-directive error
// enumerates them so a typo'd campaign file names its own fix.
var directiveNames = []string{
	"campaign", "seed", "trials", "max-steps", "stop", "suffix-rounds",
	"key", "graph", "protocol", "daemon", "adversary", "churn", "metrics",
}

// Parse parses campaign DSL source into a Spec. The grammar is
// line-oriented; `#` starts a comment, blank lines are ignored, and the
// first directive must be `campaign NAME`:
//
//	campaign NAME
//	seed N                      # master seed (default 2009)
//	trials N                    # trials per cell (default 5)
//	max-steps N                 # per-run step budget (default 1000000)
//	stop ci:WIDTH[:MIN..MAX]    # sequential stopping (default off; MIN..MAX default 5..100)
//	suffix-rounds N             # post-silence suffix (plain campaigns)
//	key TEMPLATE                # cell-key template (see package doc)
//	graph FAMILY SIZES [d=D] [p=P]   # SIZES = N | LO..HI[/STEP]
//	protocol NAME...            # engine.Families names
//	daemon NAME...              # sched.Names names (default random-subset)
//	adversary NAME k=K1,K2,... inject=SCHEDULE
//	churn NAME k=K1,K2,... inject=SCHEDULE   # topology churn (fault.ChurnNames)
//	metrics NAME...             # output selectors (see MetricNames)
//
// The parser is strict: unknown directives, unknown axis values,
// duplicate scalar directives, duplicate axis entries and out-of-range
// numbers are all errors. Every default is resolved into the returned
// Spec, so Spec.String renders a complete canonical form and
// Parse(spec.String()) round-trips.
func Parse(src string) (*Spec, error) {
	lines := strings.Split(src, "\n")
	if len(lines) > maxCampaignLines {
		return nil, fmt.Errorf("campaign: source exceeds %d lines", maxCampaignLines)
	}
	s := &Spec{}
	seen := map[string]bool{}
	sawCampaign := false
	for ln, raw := range lines {
		line := raw
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		directive, args := fields[0], fields[1:]
		fail := func(format string, a ...any) error {
			return fmt.Errorf("campaign: line %d: %s: %s", ln+1, directive, fmt.Sprintf(format, a...))
		}
		if !sawCampaign && directive != "campaign" {
			return nil, fmt.Errorf("campaign: line %d: first directive must be `campaign NAME`, got %q", ln+1, directive)
		}
		switch directive {
		case "campaign":
			if sawCampaign {
				return nil, fail("duplicate directive")
			}
			sawCampaign = true
			if len(args) != 1 {
				return nil, fail("want exactly one name")
			}
			if err := checkName(args[0]); err != nil {
				return nil, fail("%v", err)
			}
			s.Name = args[0]
		case "seed", "trials", "max-steps", "suffix-rounds":
			if seen[directive] {
				return nil, fail("duplicate directive")
			}
			seen[directive] = true
			if len(args) != 1 {
				return nil, fail("want exactly one value")
			}
			v, err := strconv.ParseUint(args[0], 10, 64)
			if err != nil {
				return nil, fail("bad value %q", args[0])
			}
			switch directive {
			case "seed":
				s.Seed = v
			case "trials":
				if v < 1 {
					return nil, fail("must be at least 1")
				}
				if v > maxScalarValue {
					return nil, fail("value %d out of range", v)
				}
				s.Trials = int(v)
			case "max-steps":
				// max-steps bounds run length, not memory, so it gets
				// the full int range (the rewired registry experiments
				// accept whatever ssbench -max-steps accepted before
				// the campaign rewrite) rather than an axis ceiling.
				if v < 1 {
					return nil, fail("must be at least 1")
				}
				if v > uint64(math.MaxInt)/2 {
					return nil, fail("value %d out of range", v)
				}
				s.MaxSteps = int(v)
			case "suffix-rounds":
				if v > maxSuffixRounds {
					return nil, fail("value %d out of range", v)
				}
				s.SuffixRounds = int(v)
			}
		case "stop":
			if seen[directive] {
				return nil, fail("duplicate directive")
			}
			seen[directive] = true
			if len(args) != 1 {
				return nil, fail("want exactly one rule (stop ci:WIDTH[:MIN..MAX])")
			}
			rule, err := parseStop(args[0])
			if err != nil {
				return nil, fail("%v", err)
			}
			s.Stop = rule
		case "key":
			if seen[directive] {
				return nil, fail("duplicate directive")
			}
			seen[directive] = true
			if len(args) != 1 {
				return nil, fail("want exactly one template token (keys cannot contain spaces)")
			}
			if err := checkTemplate(args[0]); err != nil {
				return nil, fail("%v", err)
			}
			s.KeyTemplate = args[0]
		case "graph":
			gs, err := parseGraph(args)
			if err != nil {
				return nil, fail("%v", err)
			}
			for _, prev := range s.Graphs {
				if prev.line() == gs.line() {
					return nil, fail("duplicate graph line %q", gs.line())
				}
			}
			if len(s.Graphs) >= maxAxisEntries {
				return nil, fail("more than %d graph lines", maxAxisEntries)
			}
			s.Graphs = append(s.Graphs, gs)
		case "protocol":
			if len(args) == 0 {
				return nil, fail("want at least one protocol name")
			}
			for _, name := range args {
				if !knownFamily(name) {
					return nil, fail("unknown protocol %q (known: %v)", name, engine.Families())
				}
				if slices.Contains(s.Protocols, name) {
					return nil, fail("duplicate protocol %q", name)
				}
				if len(s.Protocols) >= maxAxisEntries {
					return nil, fail("more than %d protocols", maxAxisEntries)
				}
				s.Protocols = append(s.Protocols, name)
			}
		case "daemon":
			if len(args) == 0 {
				return nil, fail("want at least one daemon name")
			}
			for _, name := range args {
				if !slices.Contains(sched.Names(), name) {
					return nil, fail("unknown daemon %q (known: %v)", name, sched.Names())
				}
				if slices.Contains(s.Daemons, name) {
					return nil, fail("duplicate daemon %q", name)
				}
				s.Daemons = append(s.Daemons, name)
			}
		case "adversary", "churn":
			dst, known, nameNoun, sizeNoun := &s.Adversaries, fault.Names(), "adversary", "fault"
			if directive == "churn" {
				dst, known, nameNoun, sizeNoun = &s.Churns, fault.ChurnNames(), "churn shape", "churn"
			}
			ax, err := parseAxis(directive, args, known, nameNoun, sizeNoun)
			if err != nil {
				return nil, fail("%v", err)
			}
			if len(*dst) >= maxAxisEntries {
				return nil, fail("more than %d %s lines", maxAxisEntries, directive)
			}
			*dst = append(*dst, ax)
		case "metrics":
			if len(args) == 0 {
				return nil, fail("want at least one metric name")
			}
			for _, name := range args {
				if _, ok := metricByName(name); !ok {
					return nil, fail("unknown metric %q (known: %v)", name, MetricNames())
				}
				if slices.Contains(s.Metrics, name) {
					return nil, fail("duplicate metric %q", name)
				}
				s.Metrics = append(s.Metrics, name)
			}
		default:
			return nil, fmt.Errorf("campaign: line %d: unknown directive %q (directives: %s)",
				ln+1, directive, strings.Join(directiveNames, " "))
		}
	}
	if !sawCampaign {
		return nil, fmt.Errorf("campaign: missing `campaign NAME` directive")
	}
	return s, s.finish(seen)
}

// finish resolves defaults and checks cross-directive consistency.
func (s *Spec) finish(seen map[string]bool) error {
	if !seen["seed"] {
		s.Seed = defaultSeed
	}
	if s.Trials == 0 {
		s.Trials = defaultTrials
	}
	if s.MaxSteps == 0 {
		s.MaxSteps = defaultMaxSteps
	}
	if len(s.Graphs) == 0 {
		return fmt.Errorf("campaign: at least one `graph` line is required")
	}
	if len(s.Protocols) == 0 {
		return fmt.Errorf("campaign: at least one `protocol` is required")
	}
	if len(s.Daemons) == 0 {
		s.Daemons = []string{engine.DefaultSchedName}
	}
	faulted := len(s.Adversaries) > 0 || len(s.Churns) > 0
	if faulted {
		if s.SuffixRounds > 0 {
			return fmt.Errorf("campaign: suffix-rounds does not apply to fault campaigns")
		}
	} else {
		for _, m := range s.Metrics {
			if md, _ := metricByName(m); md.faultOnly {
				return fmt.Errorf("campaign: metric %q requires an adversary or churn axis", m)
			}
		}
	}
	if len(s.Metrics) == 0 {
		s.Metrics = defaultMetrics(faulted)
	}
	return nil
}

func checkName(name string) error {
	if name == "" || len(name) > maxNameLen {
		return fmt.Errorf("name must be 1..%d characters", maxNameLen)
	}
	for _, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.':
		default:
			return fmt.Errorf("name %q may only contain [a-zA-Z0-9._-]", name)
		}
	}
	return nil
}

// checkTemplate validates that every {...} group in a key template is a
// known placeholder and that the template is printable (control or
// whitespace runes would leak into cell keys and the JSONL output).
func checkTemplate(t string) error {
	if len(t) > maxTemplateLen {
		return fmt.Errorf("template exceeds %d bytes", maxTemplateLen)
	}
	for _, r := range t {
		if !unicode.IsPrint(r) || unicode.IsSpace(r) {
			return fmt.Errorf("template %q contains non-printable or whitespace rune %q", t, r)
		}
	}
	rest := t
	for {
		i := strings.IndexByte(rest, '{')
		if i < 0 {
			break
		}
		j := strings.IndexByte(rest[i:], '}')
		if j < 0 {
			return fmt.Errorf("unterminated placeholder in template %q", t)
		}
		ph := rest[i : i+j+1]
		if !slices.Contains(keyPlaceholders, ph) {
			return fmt.Errorf("unknown placeholder %s (known: %v)", ph, keyPlaceholders)
		}
		rest = rest[i+j+1:]
	}
	if strings.IndexByte(t, '}') >= 0 && strings.Count(t, "}") != strings.Count(t, "{") {
		return fmt.Errorf("unbalanced braces in template %q", t)
	}
	return nil
}

func parseGraph(args []string) (GraphSpec, error) {
	var gs GraphSpec
	if len(args) < 2 {
		return gs, fmt.Errorf("want `graph FAMILY SIZES [d=D] [p=P]`")
	}
	gs.Family = args[0]
	if !slices.Contains(graph.NamedGenerators(), gs.Family) {
		return gs, fmt.Errorf("unknown graph family %q (known: %v)", gs.Family, graph.NamedGenerators())
	}
	var err error
	gs.Lo, gs.Hi, gs.Step, err = parseSizes(args[1])
	if err != nil {
		return gs, err
	}
	for _, opt := range args[2:] {
		switch {
		case strings.HasPrefix(opt, "d="):
			if gs.Family != "regular" {
				return gs, fmt.Errorf("d= only applies to the regular family")
			}
			if gs.D != 0 {
				return gs, fmt.Errorf("duplicate d= option")
			}
			d, err := strconv.Atoi(opt[2:])
			if err != nil || d < 1 || d > maxGraphN {
				return gs, fmt.Errorf("bad degree %q", opt)
			}
			gs.D = d
		case strings.HasPrefix(opt, "p="):
			if gs.Family != "gnp" && gs.Family != "rgg" {
				return gs, fmt.Errorf("p= only applies to the gnp and rgg families")
			}
			if gs.P != 0 {
				return gs, fmt.Errorf("duplicate p= option")
			}
			p, err := strconv.ParseFloat(opt[2:], 64)
			if err != nil || !(p > 0) || p > 4 {
				return gs, fmt.Errorf("bad probability/radius %q", opt)
			}
			gs.P = p
		default:
			return gs, fmt.Errorf("unknown graph option %q (want d=D or p=P)", opt)
		}
	}
	return gs, nil
}

// parseSizes parses `N` or `LO..HI` or `LO..HI/STEP`.
func parseSizes(tok string) (lo, hi, step int, err error) {
	sizes, rest, hasStep := tok, "", false
	if i := strings.IndexByte(tok, '/'); i >= 0 {
		sizes, rest, hasStep = tok[:i], tok[i+1:], true
	}
	bad := func() (int, int, int, error) {
		return 0, 0, 0, fmt.Errorf("bad sizes %q (want N or LO..HI or LO..HI/STEP)", tok)
	}
	if i := strings.Index(sizes, ".."); i >= 0 {
		lo, err1 := strconv.Atoi(sizes[:i])
		hi, err2 := strconv.Atoi(sizes[i+2:])
		if err1 != nil || err2 != nil || lo < 1 || hi < lo || hi > maxGraphN {
			return bad()
		}
		step := 1
		if hasStep {
			step, err = strconv.Atoi(rest)
			if err != nil || step < 1 {
				return bad()
			}
		}
		if lo == hi {
			return lo, hi, 0, nil
		}
		if n := (hi-lo)/step + 1; n > maxSizesPerLine {
			return 0, 0, 0, fmt.Errorf("range %q expands to %d sizes (max %d)", tok, n, maxSizesPerLine)
		}
		return lo, hi, step, nil
	}
	if hasStep {
		return bad()
	}
	n, err := strconv.Atoi(sizes)
	if err != nil || n < 1 || n > maxGraphN {
		return bad()
	}
	return n, n, 0, nil
}

// parseAxis parses the body of an `adversary` or `churn` line,
// NAME k=K1,K2,... [inject=SCHEDULE] with NAME one of known. nameNoun
// and sizeNoun are what its errors call NAME and each K ("adversary"
// and "fault" on an adversary line, "churn shape" and "churn" on a
// churn line).
func parseAxis(directive string, args, known []string, nameNoun, sizeNoun string) (AxisSpec, error) {
	var ax AxisSpec
	if len(args) < 2 {
		return ax, fmt.Errorf("want `%s NAME k=K1,K2,... [inject=SCHEDULE]`", directive)
	}
	ax.Name = args[0]
	if !slices.Contains(known, ax.Name) {
		return ax, fmt.Errorf("unknown %s %q (known: %v)", nameNoun, ax.Name, known)
	}
	ax.Schedule = fault.AtStart()
	sawK, sawInject := false, false
	for _, opt := range args[1:] {
		switch {
		case strings.HasPrefix(opt, "k="):
			if sawK {
				return ax, fmt.Errorf("duplicate k= option")
			}
			sawK = true
			for _, tok := range strings.Split(opt[2:], ",") {
				k, err := strconv.Atoi(tok)
				if err != nil || k < 1 || k > maxFaultK {
					return ax, fmt.Errorf("bad %s size %q", sizeNoun, tok)
				}
				if slices.Contains(ax.Ks, k) {
					return ax, fmt.Errorf("duplicate %s size %d", sizeNoun, k)
				}
				if len(ax.Ks) >= maxAxisEntries {
					return ax, fmt.Errorf("more than %d %s sizes", maxAxisEntries, sizeNoun)
				}
				ax.Ks = append(ax.Ks, k)
			}
		case strings.HasPrefix(opt, "inject="):
			if sawInject {
				return ax, fmt.Errorf("duplicate inject= option")
			}
			sawInject = true
			sc, err := fault.ParseSchedule(opt[len("inject="):])
			if err != nil {
				return ax, err
			}
			ax.Schedule = sc
		default:
			return ax, fmt.Errorf("unknown %s option %q (want k=... or inject=...)", directive, opt)
		}
	}
	if !sawK || len(ax.Ks) == 0 {
		return ax, fmt.Errorf("missing k= %s sizes", sizeNoun)
	}
	return ax, nil
}

// parseStop parses a `stop` rule: ci:WIDTH or ci:WIDTH:MIN..MAX. WIDTH
// is the target 95%-CI half-width on mean rounds-to-silence (finite,
// > 0); MIN..MAX bounds the realized trial count (2 ≤ MIN ≤ MAX).
func parseStop(tok string) (engine.StopRule, error) {
	var zero engine.StopRule
	rest, ok := strings.CutPrefix(tok, "ci:")
	if !ok {
		return zero, fmt.Errorf("bad rule %q (want ci:WIDTH[:MIN..MAX])", tok)
	}
	widthTok, rangeTok, hasRange := strings.Cut(rest, ":")
	w, err := strconv.ParseFloat(widthTok, 64)
	if err != nil || math.IsInf(w, 0) || math.IsNaN(w) || w <= 0 {
		return zero, fmt.Errorf("bad CI half-width %q (want a finite value > 0)", widthTok)
	}
	rule := engine.StopRule{HalfWidth: w, Min: defaultStopMin, Max: defaultStopMax}
	if hasRange {
		loTok, hiTok, ok := strings.Cut(rangeTok, "..")
		if !ok {
			return zero, fmt.Errorf("bad trial bounds %q (want MIN..MAX)", rangeTok)
		}
		lo, err1 := strconv.Atoi(loTok)
		hi, err2 := strconv.Atoi(hiTok)
		if err1 != nil || err2 != nil || lo < 2 || hi < lo || hi > maxScalarValue {
			return zero, fmt.Errorf("bad trial bounds %q (want 2 <= MIN <= MAX)", rangeTok)
		}
		rule.Min, rule.Max = lo, hi
	}
	return rule, nil
}

func knownFamily(name string) bool { return slices.Contains(engine.Families(), name) }
