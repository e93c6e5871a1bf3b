package obs

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// Sink consumes periodic registry snapshots. Implementations decide what
// to do with them: log a progress line, push to a collector, archive to
// disk. Consume is called from the Publisher's goroutine; implementations
// must be safe for that (they never run concurrently with themselves).
type Sink interface {
	Consume(s *Snapshot)
}

// Publisher snapshots a registry on a fixed interval and hands the
// snapshot to every sink — the engine behind the progress logger and any
// push-style exporter. Start it with NewPublisher, stop it with Stop
// (idempotent); Stop delivers one final snapshot so short runs still
// produce at least one report.
type Publisher struct {
	reg      *Registry
	sinks    []Sink
	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
}

// NewPublisher starts publishing snapshots of reg every interval to the
// given sinks. A nil registry, non-positive interval or empty sink list
// yields an inert publisher whose Stop is still safe to call.
func NewPublisher(reg *Registry, interval time.Duration, sinks ...Sink) *Publisher {
	p := &Publisher{reg: reg, sinks: sinks, stop: make(chan struct{}), done: make(chan struct{})}
	if reg == nil || interval <= 0 || len(sinks) == 0 {
		close(p.done)
		return p
	}
	go func() {
		defer close(p.done)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				p.publish()
			case <-p.stop:
				p.publish() // final snapshot on shutdown
				return
			}
		}
	}()
	return p
}

func (p *Publisher) publish() {
	s := p.reg.Snapshot()
	for _, sink := range p.sinks {
		sink.Consume(s)
	}
}

// Stop halts the publishing goroutine after one final snapshot and waits
// for it to exit. Safe to call multiple times.
func (p *Publisher) Stop() {
	p.stopOnce.Do(func() { close(p.stop) })
	<-p.done
}

// LogSink writes one compact progress line per snapshot to W — the
// replacement for ad-hoc per-run progress printers. Keys selects the
// metrics to report in order; empty Keys reports every counter and gauge.
// Histograms named in Keys report count, p50 and p99. Metrics that have
// not moved since the previous line are still printed: a stalled run
// showing the same numbers is itself a signal.
type LogSink struct {
	W io.Writer
	// Prefix starts every line (e.g. "relsim: "); keep it short.
	Prefix string
	// Keys are the metric names to report, in order. Empty means all
	// counters and gauges.
	Keys []string
}

// Consume writes the progress line.
func (l *LogSink) Consume(s *Snapshot) {
	if l.W == nil || s == nil {
		return
	}
	parts := make([]string, 0, 8)
	if len(l.Keys) == 0 {
		for _, c := range s.Counters {
			parts = append(parts, fmt.Sprintf("%s=%d", c.Name, c.Value))
		}
		for _, g := range s.Gauges {
			parts = append(parts, fmt.Sprintf("%s=%g", g.Name, g.Value))
		}
	} else {
		for _, k := range l.Keys {
			if v, ok := s.Counter(k); ok {
				parts = append(parts, fmt.Sprintf("%s=%d", k, v))
				continue
			}
			if h := s.Histogram(k); h != nil {
				parts = append(parts, fmt.Sprintf("%s{count=%d p50=%.3g p99=%.3g}", k, h.Count, h.P50, h.P99))
				continue
			}
			for _, g := range s.Gauges {
				if g.Name == k {
					parts = append(parts, fmt.Sprintf("%s=%g", k, g.Value))
					break
				}
			}
		}
	}
	if len(parts) == 0 {
		return
	}
	fmt.Fprintf(l.W, "%s%s\n", l.Prefix, joinSpace(parts))
}

func joinSpace(parts []string) string {
	out := parts[0]
	for _, p := range parts[1:] {
		out += " " + p
	}
	return out
}
