package main

import (
	"hash/fnv"
	"sync"
	"time"

	"backfi/internal/core"
	"backfi/internal/serve"
)

// inProcess replays the connections' steps directly on core sessions,
// with no daemon: the same session seeds and payloads, sent in the same
// per-session order. It measures core.Session.Send /
// MultiTagSession.SendSlot time per timed frame and counts how many
// replayed frames reproduce the daemon's record. The replay also reads
// what the responses do not carry: SIC cancellation depth.
type inProcess struct {
	sendNS   int64
	frames   int // timed frames replayed
	checked  int // records compared
	matched  int
	cancelDB float64
	cancels  int
}

// sessionSeedOffset mirrors the daemon's per-session seed: the
// template seed plus FNV-1a64 of the session id.
func sessionSeedOffset(id string) int64 {
	h := fnv.New64a()
	h.Write([]byte(id))
	return int64(h.Sum64())
}

// replay runs r's steps in process until every step is replayed or
// dur has passed. r must be torn down already; only its logs are read.
func replay(r *rig, dur time.Duration) (inProcess, error) {
	sp := r.sp
	pool := core.NewSlotPool(sp.link().Seed)
	deadline := time.Now().Add(dur)
	results := make([]inProcess, len(r.conns))
	errs := make([]error, len(r.conns))
	var wg sync.WaitGroup
	for i, cn := range r.conns {
		wg.Add(1)
		go func(i int, cn *conn) {
			defer wg.Done()
			res := &results[i]
			single := map[string]*core.Session{}
			multi := map[string]*core.MultiTagSession{}
			reqs := map[string]int{}
			for _, st := range cn.steps {
				if time.Now().After(deadline) {
					return
				}
				cfg := sp.link()
				cfg.Seed += sessionSeedOffset(st.id)
				cfg.SessionCache = true
				pay := sp.payloads(cn.seed, st)
				var rec record
				var elapsed time.Duration
				if sp.tags > 0 {
					s := multi[st.id]
					if s == nil {
						var err error
						if s, err = core.NewMultiTagSession(core.MultiTagSessionConfig{Link: cfg, Tags: sp.tags, Pool: pool}); err != nil {
							errs[i] = err
							return
						}
						multi[st.id] = s
					}
					t0 := time.Now()
					out, err := s.SendSlot(pay)
					elapsed = time.Since(t0)
					if err != nil {
						errs[i] = err
						return
					}
					rec = record{seq: s.Stats.SlotsOffered, attempts: 1}
					delivered := 0
					for k, pr := range out.Results {
						tr := serveTag(out.Woke[k], pr)
						if tr.Delivered {
							delivered++
						}
						rec.tags = append(rec.tags, tr)
					}
					rec.delivered = delivered == len(pay)
					// One shared SIC pass serves the whole slot.
					if len(out.Results) > 0 && out.Results[0] != nil {
						res.cancelDB += out.Results[0].SICCancellationDB
						res.cancels++
					}
				} else {
					s := single[st.id]
					if s == nil {
						var err error
						if s, err = core.NewSession(cfg, rho, maxRetries); err != nil {
							errs[i] = err
							return
						}
						single[st.id] = s
					}
					before := s.Stats
					t0 := time.Now()
					pr, delivered, err := s.Send(pay[0])
					elapsed = time.Since(t0)
					if err != nil {
						errs[i] = err
						return
					}
					rec = record{
						seq: s.Stats.FramesOffered, delivered: delivered,
						attempts: s.Stats.PacketsSent - before.PacketsSent,
						noWakes:  s.Stats.NoWakes - before.NoWakes,
					}
					if pr != nil {
						rec.payloadOK, rec.snr = pr.PayloadOK, pr.MeasuredSNRdB
						res.cancelDB += pr.SICCancellationDB
						res.cancels++
					}
				}
				req := reqs[st.id]
				reqs[st.id]++
				if got, ok := findRecord(cn.logs[st.id], req); ok {
					res.checked++
					if sameRecord(got, rec) {
						res.matched++
					}
					if got.timed {
						res.frames++
						res.sendNS += elapsed.Nanoseconds()
					}
				}
			}
		}(i, cn)
	}
	wg.Wait()
	var total inProcess
	for i, res := range results {
		if errs[i] != nil {
			return total, errs[i]
		}
		total.sendNS += res.sendNS
		total.frames += res.frames
		total.checked += res.checked
		total.matched += res.matched
		total.cancelDB += res.cancelDB
		total.cancels += res.cancels
	}
	return total, nil
}

// serveTag is the daemon's per-member slot result for one tag.
func serveTag(woke bool, pr *core.PacketResult) serve.TagResult {
	tr := serve.TagResult{Woke: woke}
	if pr != nil {
		tr.Delivered, tr.PayloadOK, tr.SNRdB = pr.Delivered, pr.PayloadOK, pr.MeasuredSNRdB
	}
	return tr
}

// findRecord returns the session's record of request req. Records are
// appended in request order, so without rejections it sits at index req.
func findRecord(lg *sessionLog, req int) (record, bool) {
	if lg == nil {
		return record{}, false
	}
	if req < len(lg.records) && lg.records[req].req == req {
		return lg.records[req], true
	}
	for _, rec := range lg.records {
		if rec.req == req {
			return rec, true
		}
	}
	return record{}, false
}

func sameRecord(a, b record) bool {
	if a.seq != b.seq || a.delivered != b.delivered || a.payloadOK != b.payloadOK ||
		a.attempts != b.attempts || a.noWakes != b.noWakes || a.snr != b.snr || len(a.tags) != len(b.tags) {
		return false
	}
	for k := range a.tags {
		if a.tags[k] != b.tags[k] {
			return false
		}
	}
	return true
}
