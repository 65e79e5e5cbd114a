package harness

import (
	"testing"
	"time"

	"cxfs/internal/chaos"
	"cxfs/internal/cluster"
	"cxfs/internal/types"
)

// The golden timeline: simulated results that any refactor of the client
// request path, the leased read path or the servers must leave
// bit-identical. A change that moves one of these values changes simulated
// behaviour; it must say why and refresh the value in the same change.

type goldenReplay struct {
	name     string
	proto    cluster.Protocol
	cacheTTL time.Duration
	retry    bool
	// Pinned: virtual replay time, messages and WAL appends.
	virtualNS int64
	messages  uint64
	appends   uint64
}

var goldenReplays = []goldenReplay{
	{name: "se", proto: cluster.ProtoSE,
		virtualNS: 587913930, messages: 21054, appends: 0},
	{name: "se-batched", proto: cluster.ProtoSEBatched,
		virtualNS: 499911273, messages: 21056, appends: 7880},
	{name: "2pc", proto: cluster.Proto2PC,
		virtualNS: 5128196913, messages: 27666, appends: 18875},
	{name: "ce", proto: cluster.ProtoCE,
		virtualNS: 2317950104, messages: 27666, appends: 3775},
	{name: "cx", proto: cluster.ProtoCx,
		virtualNS: 293361982, messages: 21377, appends: 7478},
	{name: "cx-cached", proto: cluster.ProtoCx, cacheTTL: 30 * time.Second,
		virtualNS: 292219124, messages: 21045, appends: 7478},
	{name: "se-cached", proto: cluster.ProtoSE, cacheTTL: 30 * time.Second,
		virtualNS: 592362470, messages: 20728, appends: 0},
	// A retry policy tighter than the loaded round trip, so requests are
	// retransmitted and the servers' duplicate suppression answers them.
	{name: "se-retry", proto: cluster.ProtoSE, retry: true,
		virtualNS: 587913930, messages: 21064, appends: 0},
	{name: "2pc-retry", proto: cluster.Proto2PC, retry: true,
		virtualNS: 5128196913, messages: 34909, appends: 18875},
	{name: "cx-retry", proto: cluster.ProtoCx, retry: true,
		virtualNS: 293361982, messages: 21377, appends: 7478},
}

// goldenRetry is the client retry policy of the "-retry" rows.
var goldenRetry = types.RetryPolicy{Timeout: 20 * time.Millisecond, Attempts: 50}

// TestGoldenReplayTimeline replays a small s3d trace at seed 1 under every
// protocol and pins its simulated results.
func TestGoldenReplayTimeline(t *testing.T) {
	cfg := Config{Scale: 0.01, Servers: 8, Seed: 1}
	for _, g := range goldenReplays {
		g := g
		t.Run(g.name, func(t *testing.T) {
			res, c := cfg.replay("s3d", g.proto, func(o *cluster.Options) {
				o.CacheTTL = g.cacheTTL
				if g.retry {
					o.Retry = goldenRetry
				}
			}, 0, nil)
			c.Shutdown()
			if res.HardErrors != 0 {
				t.Errorf("%d hard errors", res.HardErrors)
			}
			got := goldenReplay{virtualNS: res.ReplayTime.Nanoseconds(), messages: res.Messages, appends: res.WALAppends}
			if got.virtualNS != g.virtualNS || got.messages != g.messages || got.appends != g.appends {
				t.Errorf("timeline moved: virtual=%dns messages=%d appends=%d, pinned %dns/%d/%d",
					got.virtualNS, got.messages, got.appends, g.virtualNS, g.messages, g.appends)
			}
		})
	}
}

// TestGoldenChaosFingerprints pins the chaos harness's report digests:
// crashes, crash-points, partitions, lossy links and client retries all
// feed them.
func TestGoldenChaosFingerprints(t *testing.T) {
	for _, g := range []struct {
		cfg  chaos.Config
		want string
	}{
		{chaos.Config{Seed: 1}, "739de1fb379450be"},
		{chaos.Config{Seed: 34}, "3732089631edb479"},
		{chaos.Config{Seed: 34, Pipeline: 8}, "169a7151421e37bb"},
	} {
		rep := chaos.Run(g.cfg)
		if got := rep.Fingerprint(); got != g.want {
			t.Errorf("seed %d pipeline %d: fingerprint %s, pinned %s", g.cfg.Seed, g.cfg.Pipeline, got, g.want)
		}
	}
}
