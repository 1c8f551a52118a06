package faultnet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"repro/internal/wire"
)

// Action names one fault class a Rule can inject.
type Action string

// The fault vocabulary. Delay and Partition only reorder time — a plan made
// of them alone must leave the training trajectory bit-identical. Corrupt,
// Truncate, and Reset destroy frames or connections and must surface as
// secagg dropouts, straggler timeouts, or crash-restarts downstream.
const (
	// ActionDelay sleeps before forwarding the matched frame (base, seeded
	// jitter and a per-byte term), modeling stragglers and slow links.
	ActionDelay Action = "delay"
	// ActionCorrupt flips Flips payload bits in the matched frame; the
	// receiver's CRC32 check must reject it.
	ActionCorrupt Action = "corrupt"
	// ActionTruncate forwards only a prefix of the matched frame and then
	// closes the connection, modeling a crash mid-send.
	ActionTruncate Action = "truncate"
	// ActionReset drops the matched frame and closes the connection,
	// modeling an abrupt peer crash.
	ActionReset Action = "reset"
	// ActionPartition blocks both directions of the matched link until
	// HealMs elapses; dials across the link are refused while it holds.
	ActionPartition Action = "partition"
)

// MatchAny is the wildcard value for a Rule's Round and Seq fields.
const MatchAny = -1

// Rule matches frames on tagged links and names the fault to inject.
// Links are identified by the node tags fednode supplies through its
// TagNetwork hooks: "cloud", "edge/<e>", "client/<id>". A frame's direction
// is always dialer→listener or listener→dialer, and From/To match the
// frame's own direction, so one rule can target either half of a duplex
// connection.
type Rule struct {
	// From and To match the frame's source and destination tags. A bare
	// "*" matches everything; a trailing "/*" matches a tag class
	// ("client/*"); anything else is exact.
	From string `json:"from"`
	To   string `json:"to"`
	// Type matches the wire message type name ("MaskedUpdate", ...); empty
	// matches every type.
	Type string `json:"type,omitempty"`
	// Round and Seq match the frame header's global round and the payload's
	// group-round sequence; MatchAny (-1) matches all.
	Round int `json:"round"`
	Seq   int `json:"seq"`

	// Action is the fault to inject when the rule fires.
	Action Action `json:"action"`
	// Prob fires the rule on each matched frame with this probability,
	// drawn from the link's seeded RNG (default 1: every match fires).
	Prob float64 `json:"prob,omitempty"`
	// Count caps how many times this rule fires per link direction
	// (0 = unlimited).
	Count int `json:"count,omitempty"`

	// DelayMs, JitterMs and BytesPerMs parameterize ActionDelay: sleep
	// DelayMs plus a seeded uniform draw from [0, JitterMs], plus, when
	// BytesPerMs is set, one millisecond per BytesPerMs bytes of the frame,
	// header included — a link's latency and bandwidth (25000 is 25 MB/s).
	DelayMs    int `json:"delay_ms,omitempty"`
	JitterMs   int `json:"jitter_ms,omitempty"`
	BytesPerMs int `json:"bytes_per_ms,omitempty"`
	// HealMs parameterizes ActionPartition: the link heals after this long.
	HealMs int `json:"heal_ms,omitempty"`
	// Flips parameterizes ActionCorrupt: payload bits to flip (default 1).
	Flips int `json:"flips,omitempty"`
}

// UnmarshalJSON applies the field defaults a hand-written plan.json expects:
// Round and Seq wildcard to MatchAny, Prob to 1, Flips to 1. A key Rule has
// no field for is an error: a misspelt "count" must not fire a rule forever.
func (r *Rule) UnmarshalJSON(b []byte) error {
	type bare Rule
	a := bare{Round: MatchAny, Seq: MatchAny, Prob: 1, Flips: 1}
	if err := decodeStrict(b, &a); err != nil {
		return err
	}
	*r = Rule(a)
	return nil
}

// decodeStrict decodes the one JSON value b holds into v, rejecting any key v
// has no field for. A Rule decodes through its own UnmarshalJSON, out of reach
// of an outer decoder's setting, so each level decodes strictly by itself.
func decodeStrict(b []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("data after the top-level JSON value")
	}
	return nil
}

// withDefaults fills the zero-valued tuning fields of a Go-built rule.
func (r Rule) withDefaults() Rule {
	if r.Prob <= 0 {
		r.Prob = 1
	}
	if r.Flips <= 0 {
		r.Flips = 1
	}
	return r
}

// Bounds on a rule's magnitudes. A wait past an hour is a hung run, not a
// straggler, and the bound keeps delay plus jitter, a heal and a restart
// backoff far inside time.Duration. A link faster than a terabyte per second
// prices even the largest frame under a tenth of a millisecond, and at one
// byte per millisecond that frame waits under a day. A thousand flipped bits
// already defeats any frame's CRC many times over, and the injector draws
// one position per flip per frame.
const (
	maxWaitMs     = 3_600_000
	maxBytesPerMs = 1 << 30
	maxFlips      = 1024
)

// checkRange rejects a plan value outside [0, hi].
func checkRange(name string, v, hi int) error {
	if v < 0 || v > hi {
		return fmt.Errorf("faultnet: %s %d outside [0,%d]", name, v, hi)
	}
	return nil
}

// validate rejects rules the injector cannot execute. It sees the rule as
// written, before withDefaults, so a negative prob or flips is an error
// rather than a default.
func (r Rule) validate() error {
	switch r.Action {
	case ActionDelay:
		if r.DelayMs <= 0 && r.JitterMs <= 0 && r.BytesPerMs <= 0 {
			return fmt.Errorf("faultnet: delay rule needs delay_ms, jitter_ms or bytes_per_ms")
		}
	case ActionCorrupt, ActionTruncate, ActionReset:
	case ActionPartition:
		if r.HealMs <= 0 {
			return fmt.Errorf("faultnet: partition rule needs heal_ms")
		}
	default:
		return fmt.Errorf("faultnet: unknown action %q", r.Action)
	}
	if r.From == "" || r.To == "" {
		return fmt.Errorf("faultnet: rule needs from and to patterns")
	}
	if r.Type != "" && wireTypeByName(r.Type) == 0 {
		return fmt.Errorf("faultnet: unknown wire type %q", r.Type)
	}
	if !(r.Prob >= 0 && r.Prob <= 1) {
		return fmt.Errorf("faultnet: prob %g outside [0,1]", r.Prob)
	}
	for _, err := range []error{
		checkRange("count", r.Count, math.MaxInt),
		checkRange("delay_ms", r.DelayMs, maxWaitMs),
		checkRange("jitter_ms", r.JitterMs, maxWaitMs),
		checkRange("bytes_per_ms", r.BytesPerMs, maxBytesPerMs),
		checkRange("heal_ms", r.HealMs, maxWaitMs),
		checkRange("flips", r.Flips, maxFlips),
	} {
		if err != nil {
			return err
		}
	}
	return nil
}

// matches reports whether the rule applies to one frame on one link
// direction.
func (r Rule) matches(from, to string, typ wire.Type, round, seq int) bool {
	if !matchTag(r.From, from) || !matchTag(r.To, to) {
		return false
	}
	if r.Type != "" && wireTypeByName(r.Type) != typ {
		return false
	}
	if r.Round != MatchAny && r.Round != round {
		return false
	}
	if r.Seq != MatchAny && r.Seq != seq {
		return false
	}
	return true
}

// matchTag implements the three pattern forms: "*", "class/*", exact.
func matchTag(pattern, tag string) bool {
	if pattern == "*" {
		return true
	}
	if class, ok := strings.CutSuffix(pattern, "/*"); ok {
		return strings.HasPrefix(tag, class+"/")
	}
	return pattern == tag
}

// wireTypeByName resolves a wire type name; 0 means unknown.
func wireTypeByName(name string) wire.Type {
	for t := wire.GlobalModel; t.Valid(); t++ {
		if t.String() == name {
			return t
		}
	}
	return 0
}

// Plan is one seeded, scripted chaos plan: the fault rules plus the
// restart budget fednode's supervised clients draw on. The same plan and seed
// always inject the same faults in the same per-link order.
type Plan struct {
	// Name identifies the plan in logs and CLI output.
	Name string `json:"name"`
	// Seed drives every probabilistic draw (per-link RNGs are derived from
	// it); the runner may override it from the -seed flag.
	Seed uint64 `json:"seed"`
	// MaxRestarts is the per-client crash-restart budget fednode grants on
	// this plan's network (Network.RestartBudget; 0: a crashed client stays
	// down).
	MaxRestarts int `json:"max_restarts,omitempty"`
	// RestartBackoffMs is the simulated pause before a crashed client
	// redials.
	RestartBackoffMs int `json:"restart_backoff_ms,omitempty"`
	// Rules are evaluated in order against every frame; all matching rules
	// that fire apply (terminal actions — truncate, reset — stop the scan).
	Rules []Rule `json:"rules"`
}

// Validate checks the recovery knobs and every rule, and applies rule
// defaults in place.
func (p *Plan) Validate() error {
	if len(p.Rules) == 0 {
		return fmt.Errorf("faultnet: plan %q has no rules", p.Name)
	}
	if err := checkRange("max_restarts", p.MaxRestarts, math.MaxInt); err != nil {
		return fmt.Errorf("faultnet: plan %q: %w", p.Name, err)
	}
	if err := checkRange("restart_backoff_ms", p.RestartBackoffMs, maxWaitMs); err != nil {
		return fmt.Errorf("faultnet: plan %q: %w", p.Name, err)
	}
	for i := range p.Rules {
		if err := p.Rules[i].validate(); err != nil {
			return fmt.Errorf("faultnet: plan %q rule %d: %w", p.Name, i, err)
		}
		p.Rules[i] = p.Rules[i].withDefaults()
	}
	return nil
}

// DelayOnly reports whether the plan can only reorder time (delay and
// partition rules): such a plan must leave final weights bit-identical to a
// fault-free run, the invariant the scenario runner asserts.
func (p *Plan) DelayOnly() bool {
	for _, r := range p.Rules {
		if r.Action != ActionDelay && r.Action != ActionPartition {
			return false
		}
	}
	return true
}

// Link is one modelled network link: a frame crossing it waits DelayMs plus
// one millisecond per BytesPerMs bytes (0: no per-byte term).
type Link struct{ DelayMs, BytesPerMs int }

// ModelPlan prices a fednode round on the client–edge–cloud tree of the
// paper's Fig. 1 as a delay-only plan. The global model crosses edgeCloud
// down to each edge and every group model crosses it back; each group-round
// broadcast and each masked update crosses clientEdge; and client id's masked
// update also waits computeMs[id], its local compute time E·H_i(n_i) in
// milliseconds (0: none). Registration, share reveal and the shutdown
// broadcast take no time. Under a wrapped network a round's simulated
// duration is then its modelled wall clock, with the weights untouched.
func ModelPlan(clientEdge, edgeCloud Link, computeMs []int) (*Plan, error) {
	p := &Plan{Name: "modelled-links"}
	add := func(from, to, typ string, l Link) {
		if l != (Link{}) {
			p.Rules = append(p.Rules, Rule{
				From: from, To: to, Type: typ, Round: MatchAny, Seq: MatchAny,
				Action: ActionDelay, DelayMs: l.DelayMs, BytesPerMs: l.BytesPerMs,
			})
		}
	}
	add("cloud", "edge/*", "GlobalModel", edgeCloud)
	add("edge/*", "cloud", "GroupAggregate", edgeCloud)
	add("edge/*", "client/*", "GlobalModel", clientEdge)
	add("client/*", "edge/*", "MaskedUpdate", clientEdge)
	for id, ms := range computeMs {
		add(fmt.Sprintf("client/%d", id), "edge/*", "MaskedUpdate", Link{DelayMs: ms})
	}
	return p, p.Validate()
}

// LoadPlan reads and validates a JSON plan file. A key that names no Plan or
// Rule field is an error naming the key.
func LoadPlan(path string) (*Plan, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("faultnet: read plan: %w", err)
	}
	p := &Plan{}
	if err := decodeStrict(b, p); err != nil {
		return nil, fmt.Errorf("faultnet: parse plan %s: %w", path, err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}
