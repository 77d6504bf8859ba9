package obs

import (
	"bytes"
	"reflect"
	"sync"
	"testing"
	"time"
)

// TestCaptureOrdering: events are retained in record order, including
// counter/gauge/timing records folded into the stream.
func TestCaptureOrdering(t *testing.T) {
	c := NewCapture()
	c.Record(Event{Kind: IterStart, Iter: 1})
	c.Count("steps", 3)
	c.Record(Event{Kind: ForwardDone, Iter: 1, Steps: 3})
	c.Timing("phase", 5*time.Millisecond)
	c.Record(Event{Kind: QueryResolved, Iter: 1, Status: "proved"})

	got := c.Events()
	wantKinds := []EventKind{IterStart, CounterKind, ForwardDone, TimingKind, QueryResolved}
	if len(got) != len(wantKinds) {
		t.Fatalf("got %d events, want %d", len(got), len(wantKinds))
	}
	for i, k := range wantKinds {
		if got[i].Kind != k {
			t.Errorf("event %d: kind %q, want %q", i, got[i].Kind, k)
		}
	}
	if fd := c.Filter(ForwardDone); len(fd) != 1 || fd[0].Steps != 3 {
		t.Errorf("Filter(ForwardDone) = %+v", fd)
	}
}

// TestAggMath: counter sums, gauge maxima, timer min/max/total/mean, and
// per-kind event counts aggregate correctly.
func TestAggMath(t *testing.T) {
	a := NewAgg()
	a.Count("c", 2)
	a.Count("c", 5)
	a.Gauge("g", 7)
	a.Gauge("g", 3) // below the max: ignored
	a.Timing("t", 10*time.Millisecond)
	a.Timing("t", 30*time.Millisecond)
	a.Timing("t", 20*time.Millisecond)
	a.Record(Event{Kind: ForwardDone, Steps: 11, WallNS: int64(time.Millisecond)})
	a.Record(Event{Kind: ForwardDone, Steps: 4, WallNS: int64(3 * time.Millisecond)})

	if got := a.Counter("c"); got != 7 {
		t.Errorf("Counter(c) = %d, want 7", got)
	}
	if got := a.GaugeMax("g"); got != 7 {
		t.Errorf("GaugeMax(g) = %d, want 7", got)
	}
	ts := a.Timer("t")
	if ts.Count != 3 || ts.Min != 10*time.Millisecond || ts.Max != 30*time.Millisecond ||
		ts.Total != 60*time.Millisecond || ts.Mean() != 20*time.Millisecond {
		t.Errorf("Timer(t) = %+v", ts)
	}
	if got := a.Events(ForwardDone); got != 2 {
		t.Errorf("Events(ForwardDone) = %d, want 2", got)
	}
	// Event-derived aggregates: step sums and per-kind wall timers.
	if got := a.Counter("event.forward_done.steps"); got != 15 {
		t.Errorf("event.forward_done.steps = %d, want 15", got)
	}
	if ws := a.Timer("event.forward_done"); ws.Count != 2 || ws.Total != 4*time.Millisecond {
		t.Errorf("event.forward_done timer = %+v", ws)
	}
	if a.Render() == "" {
		t.Error("Render() is empty")
	}
}

// TestAggConcurrent: the sink tolerates concurrent recording (the bench
// harness records from a worker pool); run under -race.
func TestAggConcurrent(t *testing.T) {
	a := NewAgg()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				a.Count("n", 1)
				a.Gauge("m", int64(i))
				a.Timing("t", time.Microsecond)
				a.Record(Event{Kind: IterStart})
			}
		}()
	}
	wg.Wait()
	if got := a.Counter("n"); got != 800 {
		t.Errorf("Counter(n) = %d, want 800", got)
	}
	if got := a.Events(IterStart); got != 800 {
		t.Errorf("Events(IterStart) = %d, want 800", got)
	}
}

// TestNDJSONRoundTrip: a mixed stream survives serialization byte-exactly
// in order and content.
func TestNDJSONRoundTrip(t *testing.T) {
	want := []Event{
		{Kind: IterStart, Query: "q0", Iter: 1, AbsSize: 2, Clauses: 3},
		{Kind: ForwardDone, Query: "q0", Iter: 1, AbsSize: 2, Steps: 41, WallNS: 1234},
		{Kind: BackwardDone, Query: "q0", Iter: 1, Cubes: 2, WallNS: 99},
		{Kind: ClauseLearned, Query: "q0", Iter: 1, Clauses: 4},
		{Kind: CounterKind, Name: "rhs.path_edges", Value: 41},
		{Kind: GaugeKind, Name: "rhs.worklist_peak", Value: 7},
		{Kind: TimingKind, Name: "minsat.minimum", WallNS: 555},
		{Kind: GroupSplit, Iter: 2, Groups: 3, Queries: 2},
		{Kind: QueryResolved, Query: "q0", Iter: 1, Status: "proved", WallNS: 2000},
	}
	var buf bytes.Buffer
	n := NewNDJSON(&buf)
	for _, e := range want {
		switch e.Kind {
		case CounterKind:
			n.Count(e.Name, e.Value)
		case GaugeKind:
			n.Gauge(e.Name, e.Value)
		case TimingKind:
			n.Timing(e.Name, time.Duration(e.WallNS))
		default:
			n.Record(e)
		}
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestTag: events lacking a query get stamped; existing tags are kept; a
// disabled underlying recorder short-circuits to Nop.
func TestTag(t *testing.T) {
	c := NewCapture()
	r := Tag(c, "q7")
	r.Record(Event{Kind: IterStart})
	r.Record(Event{Kind: IterStart, Query: "other"})
	ev := c.Events()
	if ev[0].Query != "q7" || ev[1].Query != "other" {
		t.Errorf("tagged queries = %q, %q", ev[0].Query, ev[1].Query)
	}
	if _, ok := Tag(Nop{}, "x").(Nop); !ok {
		t.Error("Tag(Nop) should collapse to Nop")
	}
	if _, ok := Tag(nil, "x").(Nop); !ok {
		t.Error("Tag(nil) should collapse to Nop")
	}
}

// TestRetag: batch indices in range become their ids, untagged events get
// the group tag, other tags pass through, and a disabled recorder
// short-circuits to Nop.
func TestRetag(t *testing.T) {
	c := NewCapture()
	r := Retag(c, []string{"", "r1"}, "b0")
	for _, q := range []string{"0", "1", "", "2", "-1", "q"} {
		r.Record(Event{Kind: IterStart, Query: q})
	}
	var got []string
	for _, e := range c.Events() {
		got = append(got, e.Query)
	}
	if want := []string{"", "r1", "b0", "2", "-1", "q"}; !reflect.DeepEqual(got, want) {
		t.Errorf("retagged queries = %q, want %q", got, want)
	}
	if _, ok := Retag(Nop{}, nil, "x").(Nop); !ok {
		t.Error("Retag(Nop) should collapse to Nop")
	}
}

// TestMulti: fan-out reaches every sink; degenerate cases collapse.
func TestMulti(t *testing.T) {
	c1, c2 := NewCapture(), NewCapture()
	m := Multi(c1, nil, Nop{}, c2)
	m.Record(Event{Kind: IterStart})
	m.Count("n", 1)
	if len(c1.Events()) != 2 || len(c2.Events()) != 2 {
		t.Errorf("sinks saw %d and %d records, want 2 and 2", len(c1.Events()), len(c2.Events()))
	}
	if _, ok := Multi().(Nop); !ok {
		t.Error("Multi() should be Nop")
	}
	if Multi(c1) != Recorder(c1) {
		t.Error("Multi(one) should return the sink itself")
	}
	if Multi(nil, Nop{}).Enabled() {
		t.Error("Multi(nil, Nop) should be disabled")
	}
}
