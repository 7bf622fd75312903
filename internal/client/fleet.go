package client

import (
	"fmt"

	"lpvs/internal/device"
	"lpvs/internal/server"
)

// Fleet groups device clients of one edge daemon so the per-slot
// report step costs one batched POST /v1/report round-trip instead of
// one per device. Decisions, playback and observations stay per-client
// — only reporting aggregates.
type Fleet struct {
	clients []*Client
	// reqs is the reused per-slot report batch; ReportBatch encodes it
	// before returning, so overwriting it next slot is safe.
	reqs []server.ReportRequest
}

// NewFleet builds a fleet from clients of the same edge daemon. The
// batch rides the first client's transport, retry, budget and breaker
// configuration.
func NewFleet(clients ...*Client) (*Fleet, error) {
	if len(clients) == 0 {
		return nil, fmt.Errorf("client: empty fleet")
	}
	if clients[0] == nil {
		return nil, fmt.Errorf("client: nil client in fleet")
	}
	base := clients[0].call.Base()
	for _, c := range clients {
		if c == nil {
			return nil, fmt.Errorf("client: nil client in fleet")
		}
		if c.call.Base() != base {
			return nil, fmt.Errorf("client: fleet spans edges %q and %q", base, c.call.Base())
		}
	}
	return &Fleet{clients: clients}, nil
}

// Report batches the slot reports of every member whose device is
// currently watching (idle or dead devices have nothing to request)
// into one round-trip. Per-item rejections do not error the call —
// they are returned in the response's Results.
func (f *Fleet) Report() (server.BatchReportResponse, error) {
	reqs := f.reqs[:0]
	for _, c := range f.clients {
		if c.dev.State != device.Watching {
			continue
		}
		reqs = append(reqs, c.ReportRequest())
	}
	f.reqs = reqs
	if len(reqs) == 0 {
		return server.BatchReportResponse{}, nil
	}
	return f.clients[0].ReportBatch(reqs)
}
