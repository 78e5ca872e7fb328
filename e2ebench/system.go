package main

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"noncanon/internal/boolexpr"
	"noncanon/internal/event"
	"noncanon/internal/netbroker"
	"noncanon/internal/netoverlay"
	"noncanon/internal/predicate"
	"noncanon/internal/sublang"
	"noncanon/internal/wire"
)

// sysStats are the counters a run reads around its measured phases.
type sysStats struct {
	// Subscriber connection: frames decoded, and socket reads and bytes
	// when the connection is wrapped in a countingConn.
	frames, reads, bytes int64

	dropped   uint64 // broker per-subscriber queue drops
	shed      uint64 // federation link sheds
	forwarded uint64 // federation event copies sent over links
	subMsgs   uint64 // federation subscription floods and retractions
}

// netSystem is a netbroker.Server in this process, one publisher
// netbroker.Client and one subscriber connection speaking the wire
// protocol directly.
type netSystem struct {
	in     *inputs
	srv    *netbroker.Server
	served chan error
	pub    *netbroker.Client
	sub    *subConn
}

func startNet(sp *spec, in *inputs, tr *tracker, wrap func(net.Conn) net.Conn) (*netSystem, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &netSystem{
		in:     in,
		srv:    netbroker.NewServer(netbroker.ServerOptions{Broker: sp.opts}),
		served: make(chan error, 1),
	}
	go func() { s.served <- s.srv.Serve(ln) }()
	addr := ln.Addr().String()
	if s.pub, err = netbroker.Dial(addr); err != nil {
		s.close()
		return nil, err
	}
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		s.close()
		return nil, fmt.Errorf("dial subscriber: %w", err)
	}
	if wrap != nil {
		nc = wrap(nc)
	}
	s.sub = newSubConn(nc, tr, tr.lanes[0])
	return s, nil
}

func (s *netSystem) subscribe(i int) error {
	_, err := s.sub.subscribe(s.in.stable[i], true)
	return err
}

func (s *netSystem) publish(evs []event.Event) ([]int, error) {
	if len(evs) == 1 {
		n, err := s.pub.Publish(evs[0])
		if err != nil {
			return nil, err
		}
		return []int{n}, nil
	}
	return s.pub.PublishBatch(evs)
}

func (s *netSystem) sysStats() sysStats {
	st := sysStats{dropped: s.srv.Broker().Stats().Dropped, frames: s.sub.frames.Load()}
	if cc, ok := s.sub.nc.(*countingConn); ok {
		st.reads, st.bytes = cc.reads.Load(), cc.bytes.Load()
	}
	return st
}

func (s *netSystem) close() error {
	if s.pub != nil {
		s.pub.Close()
	}
	if s.sub != nil {
		s.sub.close()
	}
	err := s.srv.Close()
	if serr := <-s.served; !errors.Is(serr, netbroker.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// subConn is the subscriber side of the load: one TCP connection that
// speaks the wire protocol directly and one reader goroutine that decodes
// every delivery and every reply. One issuer at a time sends requests and
// waits for each reply.
type subConn struct {
	nc      net.Conn
	r       *bufio.Reader
	tr      *tracker
	lane    *lane
	replies chan reply
	done    chan struct{} // closed when the reader exits
	readErr error         // valid once done is closed

	reqID   uint32
	handles uint64 // handles the server has assigned on this connection
	frames  atomic.Int64
}

type reply struct {
	typ   byte
	reqID uint32
	body  []byte
}

func newSubConn(nc net.Conn, tr *tracker, l *lane) *subConn {
	s := &subConn{
		nc:      nc,
		r:       bufio.NewReaderSize(nc, 64<<10),
		tr:      tr,
		lane:    l,
		replies: make(chan reply, 1),
		done:    make(chan struct{}),
	}
	go s.readLoop()
	return s
}

func (s *subConn) readLoop() {
	defer close(s.done)
	var buf []byte
	for {
		typ, payload, b, err := wire.ReadFrameInto(s.r, buf)
		buf = b
		if err != nil {
			s.readErr = err
			return
		}
		s.frames.Add(1)
		if typ == wire.MsgEvent {
			if err := s.event(payload); err != nil {
				s.tr.unexpected.Add(1)
				s.tr.fail("subscriber: %v", err)
			}
			continue
		}
		id, rest, err := wire.ReadU32(payload)
		if err != nil {
			s.readErr = fmt.Errorf("malformed reply: %w", err)
			return
		}
		s.replies <- reply{typ: typ, reqID: id, body: append([]byte(nil), rest...)}
	}
}

// event decodes one pushed delivery, aliasing the frame buffer, and hands
// it to the oracle.
func (s *subConn) event(payload []byte) error {
	h, rest, err := wire.ReadU64(payload)
	if err != nil {
		return fmt.Errorf("malformed event push: %w", err)
	}
	tr := s.tr.trace
	var t0 int64
	if tr != nil {
		t0 = s.tr.now()
	}
	ev, _, err := wire.ReadEventAlias(rest)
	if err != nil {
		return fmt.Errorf("malformed event: %w", err)
	}
	now := s.tr.now()
	v, ok := ev.Get("seq")
	if !ok {
		return fmt.Errorf("delivered event without seq: %s", ev)
	}
	seq := v.Int()
	if tr != nil {
		tr.decoded(s.tr, seq, t0, now)
	}
	s.tr.deliver(s.lane, h, seq, now)
	return nil
}

func (s *subConn) request(typ byte, payload []byte) (reply, error) {
	if err := wire.WriteFrame(s.nc, typ, payload); err != nil {
		return reply{}, fmt.Errorf("send: %w", err)
	}
	select {
	case r := <-s.replies:
		if r.reqID != s.reqID {
			return r, fmt.Errorf("reply to request %d, want %d", r.reqID, s.reqID)
		}
		if r.typ == wire.MsgError {
			msg, _, _ := wire.ReadString(r.body)
			return r, fmt.Errorf("broker: %s", msg)
		}
		return r, nil
	case <-s.done:
		return reply{}, fmt.Errorf("subscriber connection: %w", s.readErr)
	}
}

// subscribe requests filter f and returns the handle the server assigned.
// Handles are connection-local and sequential, so the oracle learns the
// handle before the request goes out: a delivery may overtake the reply.
func (s *subConn) subscribe(f int, stable bool) (uint64, error) {
	h := s.handles + 1
	if h >= uint64(len(s.tr.subs)) {
		return 0, fmt.Errorf("subscription table full at handle %d", h)
	}
	s.tr.register(h, f, stable)
	s.reqID++
	r, err := s.request(wire.MsgSubscribe, wire.AppendString(wire.AppendU32(nil, s.reqID), s.tr.in.texts[f]))
	if err != nil {
		return 0, fmt.Errorf("subscribe %q: %w", s.tr.in.texts[f], err)
	}
	got, _, err := wire.ReadU64(r.body)
	if r.typ != wire.MsgSubscribed || err != nil || got != h {
		return 0, fmt.Errorf("subscribe %q: reply type %d handle %d, want handle %d", s.tr.in.texts[f], r.typ, got, h)
	}
	s.handles = h
	return h, nil
}

func (s *subConn) unsubscribe(h uint64) error {
	s.reqID++
	r, err := s.request(wire.MsgUnsubscribe, wire.AppendU64(wire.AppendU32(nil, s.reqID), h))
	if err != nil {
		return fmt.Errorf("unsubscribe %d: %w", h, err)
	}
	if r.typ != wire.MsgOK {
		return fmt.Errorf("unsubscribe %d: reply type %d", h, r.typ)
	}
	return nil
}

func (s *subConn) close() {
	s.nc.Close()
	<-s.done
}

// fedSystem is three netoverlay brokers in a line, A - B - C, linked over
// loopback TCP. Events enter at A; the stable subscriptions live
// alternately at B and C, and their handlers are the deliveries.
type fedSystem struct {
	in    *inputs
	tr    *tracker
	nodes [3]*netoverlay.Broker
	probe [3]chan struct{}
}

// probeAttr names the attribute of settle's probe events; no workload
// filter reads it.
const probeAttr = "probe"

func startFed(in *inputs, tr *tracker) (*fedSystem, error) {
	s := &fedSystem{in: in, tr: tr}
	var prev string
	for i := range s.nodes {
		s.nodes[i] = netoverlay.NewBroker(netoverlay.Options{
			NodeID:  uint32(i + 1),
			OnError: func(err error) { tr.fail("federation: %v", err) },
		})
		addr, err := s.nodes[i].Listen("127.0.0.1:0")
		if err != nil {
			s.close()
			return nil, fmt.Errorf("listen: %w", err)
		}
		if prev != "" {
			if err := s.nodes[i].Connect(prev); err != nil {
				s.close()
				return nil, fmt.Errorf("link %d: %w", i, err)
			}
		}
		prev = addr.String()
		s.probe[i] = make(chan struct{}, 1)
	}
	return s, nil
}

func (s *fedSystem) subscribe(i int) error {
	f := s.in.stable[i]
	expr, err := sublang.Parse(s.in.texts[f])
	if err != nil {
		return err
	}
	h := uint64(i + 1)
	s.tr.register(h, f, true)
	home := 1 + i%2
	l := s.tr.lanes[home-1]
	_, err = s.nodes[home].Subscribe(expr, func(ev event.Event) {
		v, ok := ev.Get("seq")
		if !ok {
			s.tr.unexpected.Add(1)
			s.tr.fail("federation delivered an event without seq: %s", ev)
			return
		}
		s.tr.deliver(l, h, v.Int(), s.tr.now())
	})
	return err
}

// settle subscribes a sentinel at each far node after the population and
// publishes probes at A until both sentinels fire. Floods travel each link
// in order, so once A routes to a sentinel it routes to every subscription
// homed before it.
func (s *fedSystem) settle() error {
	for node := 1; node < len(s.nodes); node++ {
		ch := s.probe[node]
		sentinel := boolexpr.Pred(probeAttr, predicate.Eq, int64(node))
		if _, err := s.nodes[node].Subscribe(sentinel, func(event.Event) {
			select {
			case ch <- struct{}{}:
			default:
			}
		}); err != nil {
			return err
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for node := 1; node < len(s.nodes); node++ {
		probe := event.New().Set(probeAttr, int64(node))
		for settled := false; !settled; {
			if time.Now().After(deadline) {
				return fmt.Errorf("routes to node %d did not settle", node)
			}
			if err := s.nodes[0].Publish(probe); err != nil {
				return err
			}
			select {
			case <-s.probe[node]:
				settled = true
			case <-time.After(100 * time.Microsecond):
			}
		}
	}
	return nil
}

func (s *fedSystem) publish(evs []event.Event) ([]int, error) {
	for _, ev := range evs {
		if err := s.nodes[0].Publish(ev); err != nil {
			return nil, err
		}
	}
	return nil, nil
}

func (s *fedSystem) sysStats() sysStats {
	var st sysStats
	for _, n := range s.nodes {
		ns := n.Stats()
		st.shed += ns.Shed
		st.forwarded += ns.Forwarded
		st.subMsgs += ns.SubscriptionMsgs
	}
	return st
}

func (s *fedSystem) close() error {
	var err error
	for _, n := range s.nodes {
		if n != nil {
			if cerr := n.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}
	}
	return err
}
