package transport

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Stats aggregates traffic counters for one direction-independent view of a
// metered connection.
type Stats struct {
	MessagesSent int64
	MessagesRecv int64
	BytesSent    int64
	BytesRecv    int64
}

// Total returns bytes sent plus bytes received.
func (s Stats) Total() int64 { return s.BytesSent + s.BytesRecv }

// Messages returns messages sent plus received.
func (s Stats) Messages() int64 { return s.MessagesSent + s.MessagesRecv }

// Add returns the field-wise sum of two Stats views.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		MessagesSent: s.MessagesSent + o.MessagesSent,
		MessagesRecv: s.MessagesRecv + o.MessagesRecv,
		BytesSent:    s.BytesSent + o.BytesSent,
		BytesRecv:    s.BytesRecv + o.BytesRecv,
	}
}

// Meter wraps a Conn and attributes every message to the currently active
// protocol tag. Protocol implementations call SetTag before each phase;
// the communication experiments then read per-tag totals. A Meter is safe
// for concurrent writers — the multiplexed transport funnels every worker
// channel through one Meter — and serializes access to the underlying
// connection, so even a bare stream framing (which interleaves header and
// body writes) stays intact under concurrency. With workers running
// different phases simultaneously the tag is a best-effort label; the
// aggregate counters stay exact.
type Meter struct {
	conn Conn

	sendMu sync.Mutex // serializes conn.Send with its counter update
	recvMu sync.Mutex // serializes conn.Recv with its counter update

	mu     sync.Mutex
	tag    string
	total  Stats
	perTag map[string]Stats
}

// NewMeter wraps conn with traffic accounting. The initial tag is "untagged".
func NewMeter(conn Conn) *Meter {
	return &Meter{conn: conn, tag: "untagged", perTag: make(map[string]Stats)}
}

// SetTag switches the attribution tag for subsequent messages and returns
// the previous tag so callers can restore it.
func (m *Meter) SetTag(tag string) (prev string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	prev = m.tag
	m.tag = tag
	return prev
}

// Tag returns the current attribution tag.
func (m *Meter) Tag() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.tag
}

func (m *Meter) Send(b []byte) error {
	m.sendMu.Lock()
	defer m.sendMu.Unlock()
	if err := m.conn.Send(b); err != nil {
		return err
	}
	m.mu.Lock()
	t := m.perTag[m.tag]
	t.MessagesSent++
	t.BytesSent += int64(len(b))
	m.perTag[m.tag] = t
	m.total.MessagesSent++
	m.total.BytesSent += int64(len(b))
	m.mu.Unlock()
	return nil
}

func (m *Meter) Recv() ([]byte, error) {
	m.recvMu.Lock()
	defer m.recvMu.Unlock()
	b, err := m.conn.Recv()
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	t := m.perTag[m.tag]
	t.MessagesRecv++
	t.BytesRecv += int64(len(b))
	m.perTag[m.tag] = t
	m.total.MessagesRecv++
	m.total.BytesRecv += int64(len(b))
	m.mu.Unlock()
	return b, nil
}

func (m *Meter) Close() error { return m.conn.Close() }

// Stats returns the aggregate counters across all tags.
func (m *Meter) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.total
}

// TagStats returns a copy of the per-tag counters.
func (m *Meter) TagStats() map[string]Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]Stats, len(m.perTag))
	for k, v := range m.perTag {
		out[k] = v
	}
	return out
}

// Merge adds the counters of another meter into a combined per-tag map.
// Useful to combine the Alice-side and Bob-side views (each message is
// counted once as sent and once as received across the two meters).
func Merge(ms ...*Meter) map[string]Stats {
	out := make(map[string]Stats)
	for _, m := range ms {
		for k, v := range m.TagStats() {
			out[k] = out[k].Add(v)
		}
	}
	return out
}

// MeterGroup tracks the per-connection Meters a multi-session endpoint
// hands out — one per accepted peer on a server, one per concurrent
// client in a load generator — and produces aggregate snapshots across
// all of them. Safe for concurrent use.
type MeterGroup struct {
	mu     sync.Mutex
	meters []*Meter
}

// New wraps conn in a fresh Meter registered with the group.
func (g *MeterGroup) New(conn Conn) *Meter {
	m := NewMeter(conn)
	g.mu.Lock()
	g.meters = append(g.meters, m)
	g.mu.Unlock()
	return m
}

// Stats returns the aggregate counters summed over every meter.
func (g *MeterGroup) Stats() Stats {
	g.mu.Lock()
	defer g.mu.Unlock()
	var total Stats
	for _, m := range g.meters {
		total = total.Add(m.Stats())
	}
	return total
}

// FormatTagStats renders per-tag stats as an aligned table, sorted by tag.
func FormatTagStats(stats map[string]Stats) string {
	tags := make([]string, 0, len(stats))
	for t := range stats {
		tags = append(tags, t)
	}
	sort.Strings(tags)
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %10s %12s\n", "tag", "msgs", "bytes")
	for _, t := range tags {
		s := stats[t]
		fmt.Fprintf(&b, "%-28s %10d %12d\n", t, s.MessagesSent, s.BytesSent)
	}
	return b.String()
}

var _ Conn = (*Meter)(nil)
