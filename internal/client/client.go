// Package client implements the device side of the LPVS edge protocol:
// reporting status, fetching decisions and chunk metadata, simulating
// playback with the local display power model, and feeding realised
// power reductions back to the edge. Its transport layer — the Caller
// in options.go — is shared with the router's shard-forwarding client,
// so both surfaces are configured through one Options API.
//
// The Caller is on the hot path of every slot (DESIGN.md §18): it
// builds each request in a recycled block on the base URL it parsed
// once, with one shared, fixed header set — "Accept-Encoding: identity"
// and no User-Agent — and hands it to the http.RoundTripper itself: the
// Caller owns retries, the breaker and the budget, and follows no
// redirect, so http.Client.Do would add only its bookkeeping. A
// RoundTripper must not keep a request once its response body is
// closed; a POST's body reader is the request's own and may outlive it. The Caller reads a 200 body whole into a pooled buffer
// (internal/bufpool): to read it in its append layout or json.Unmarshal
// it, either of which wants exactly one JSON value, or, for the router,
// to relay its bytes untouched.
package client

import (
	"fmt"
	"net/http"
	"net/url"
	"strconv"

	"lpvs/internal/device"
	"lpvs/internal/display"
	"lpvs/internal/server"
	"lpvs/internal/stats"
	"lpvs/internal/wire"
)

// Client talks to one LPVS edge daemon on behalf of one device.
type Client struct {
	call    *Caller
	dev     *device.Device
	channel string // stream the device watches; empty = the default

	// wireBuf is the reused binary batch buffer (DESIGN.md §16), so a
	// steady-state reporter allocates no per-slot body.
	wireBuf []byte
}

// New builds a client for the device against the daemon at baseURL.
// Pass nil for the default HTTP client (WithHTTPClient also sets it;
// the explicit parameter wins when non-nil).
func New(baseURL string, dev *device.Device, httpClient *http.Client, opts ...Option) (*Client, error) {
	if dev == nil {
		return nil, fmt.Errorf("client: nil device")
	}
	if err := dev.Validate(); err != nil {
		return nil, err
	}
	if _, err := url.Parse(baseURL); err != nil {
		return nil, fmt.Errorf("client: bad base URL: %w", err)
	}
	var o Options
	for _, opt := range opts {
		opt(&o)
	}
	if httpClient != nil {
		o.HTTP = httpClient
	}
	return &Client{call: newCaller(baseURL, o), dev: dev}, nil
}

// Device returns the client's device.
func (c *Client) Device() *device.Device { return c.dev }

// ReportRequest builds the device's slot report in wire form, for a
// batch (ReportBatch, Fleet.Report) to carry.
func (c *Client) ReportRequest() server.ReportRequest {
	return server.ReportRequest{
		DeviceID:         c.dev.ID,
		ChannelID:        c.channel,
		DisplayType:      c.dev.Display.Type.String(),
		Width:            c.dev.Display.Resolution.Width,
		Height:           c.dev.Display.Resolution.Height,
		DiagonalInch:     c.dev.Display.DiagonalInch,
		Brightness:       c.dev.Display.Brightness,
		EnergyFrac:       c.dev.EnergyFrac(),
		BatteryCapacityJ: c.dev.Battery.CapacityJ,
		BasePowerW:       c.dev.BasePowerW,
	}
}

// ReportBatch posts many reports as one binary batch — one round-trip
// for a whole co-located fleet instead of one per device. The reports
// need not belong to this client's device; the call just rides its
// transport, retry and breaker machinery. Per-item failures do not
// error the call — inspect the response's Results, which lists the
// rejections. A batch the codec cannot frame fails before it is sent,
// and a refused body (a 400 or 415) comes back as an *APIError.
func (c *Client) ReportBatch(reqs []server.ReportRequest) (server.BatchReportResponse, error) {
	var resp server.BatchReportResponse
	buf, err := wire.AppendBatch(c.wireBuf[:0], reqs)
	if err != nil {
		return resp, fmt.Errorf("client: frame report batch: %w", err)
	}
	c.wireBuf = buf
	err = c.call.PostRaw("/v1/report", wire.ContentType, buf, &resp)
	return resp, err
}

// Decision fetches the device's current transform decision.
func (c *Client) Decision() (server.DecisionResponse, error) {
	var resp server.DecisionResponse
	err := c.call.GetJSON("/v1/decision?device="+url.QueryEscape(c.dev.ID), &resp)
	return resp, err
}

// Chunk fetches metadata of one chunk in the device's current slot.
func (c *Client) Chunk(index int) (server.ChunkResponse, error) {
	var resp server.ChunkResponse
	err := c.call.GetJSON("/v1/chunk?device="+url.QueryEscape(c.dev.ID)+"&index="+strconv.Itoa(index), &resp)
	return resp, err
}

// Observe reports the realised mean power reduction of the played slot.
func (c *Client) Observe(reduction float64) (server.ObserveResponse, error) {
	var resp server.ObserveResponse
	err := c.call.PostJSON("/v1/observe", server.ObserveRequest{DeviceID: c.dev.ID, Reduction: reduction}, &resp)
	return resp, err
}

// SlotResult summarises one played slot on the client.
type SlotResult struct {
	ChunksPlayed   int
	WatchedSec     float64
	EnergyJ        float64
	UntransformedJ float64
	MeanReduction  float64
	Transformed    bool
}

// PlaySlot plays chunk metadata [0, chunks) of the current slot on the
// local device: it derives the display power from the served content
// statistics (honouring the backlight-scale instruction), drains the
// battery, and — when the slot was transformed — feeds the realised
// reduction back to the edge.
func (c *Client) PlaySlot(chunks int) (SlotResult, error) {
	var res SlotResult
	dec, err := c.Decision()
	if err != nil {
		return res, err
	}
	res.Transformed = dec.Transform
	var reductions []float64
	for k := 0; k < chunks; k++ {
		if c.dev.State != device.Watching {
			break
		}
		chunk, err := c.Chunk(k)
		if err != nil {
			return res, err
		}
		cs := display.ContentStats{
			MeanLuma: chunk.MeanLuma,
			PeakLuma: chunk.PeakLuma,
			MeanR:    chunk.MeanR,
			MeanG:    chunk.MeanG,
			MeanB:    chunk.MeanB,
		}
		spec := c.dev.Display
		spec.Brightness = stats.Clamp(spec.Brightness*chunk.BrightnessScale, 0, 1)
		actualW, err := display.PlaybackPower(spec, cs)
		if err != nil {
			return res, fmt.Errorf("client: power model: %w", err)
		}
		// The edge estimates the untransformed power p_{n,m}(kappa) for
		// this device and ships it with the chunk; the difference against
		// the locally measured draw is the realised reduction.
		plainW := chunk.PlainPowerW
		if !chunk.Transformed {
			plainW = actualW
		}
		watched := c.dev.Watch(chunk.DurationSec, actualW)
		res.ChunksPlayed++
		res.WatchedSec += watched
		res.EnergyJ += actualW * watched
		res.UntransformedJ += plainW * watched
		if chunk.Transformed && plainW > 0 {
			reductions = append(reductions, (plainW-actualW)/plainW)
		}
	}
	if len(reductions) > 0 {
		res.MeanReduction = stats.Mean(reductions)
		if _, err := c.Observe(res.MeanReduction); err != nil {
			return res, err
		}
	}
	return res, nil
}
