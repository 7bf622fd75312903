// Streaming-service: run the LPVS edge daemon as a real HTTP service and
// drive it with a fleet of device clients — the deployable face of the
// paper's Fig. 6 pipeline. Devices report status each slot, the edge
// schedules transforms under its capacity, clients play the served chunk
// metadata (draining their batteries through the display power model)
// and feed realised savings back into the edge's Bayesian estimators.
package main

import (
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"

	"lpvs"
	"lpvs/internal/device"
)

func main() {
	// Edge daemon: a 2-hour Esports stream, capacity for 10 concurrent
	// 720p transforms.
	stream, err := lpvs.GenerateVideo(lpvs.NewRNG(1),
		lpvs.DefaultVideoConfig("live", lpvs.GenreEsports, 24*30))
	if err != nil {
		log.Fatal(err)
	}
	daemon, err := lpvs.NewEdgeDaemon(lpvs.EdgeDaemonConfig{
		Stream:        stream,
		ServerStreams: 10,
		Lambda:        1,
	})
	if err != nil {
		log.Fatal(err)
	}
	ts := httptest.NewServer(daemon.Handler())
	defer ts.Close()
	fmt.Println("edge daemon listening on", ts.URL)

	// A fleet of 16 devices connects.
	fleet, err := lpvs.NewDeviceFleet(lpvs.NewRNG(2), 16, lpvs.DefaultDeviceConfig())
	if err != nil {
		log.Fatal(err)
	}
	clients := make([]*lpvs.DeviceClient, 0, len(fleet))
	for _, dev := range fleet {
		c, err := lpvs.NewDeviceClient(ts.URL, dev, nil)
		if err != nil {
			log.Fatal(err)
		}
		clients = append(clients, c)
	}
	// Batched reporting: the whole fleet's slot reports ride one
	// POST /v1/report round-trip instead of one per device, framed in
	// the compact binary wire format (DESIGN.md §16).
	group, err := lpvs.NewClientFleet(clients...)
	if err != nil {
		log.Fatal(err)
	}

	// Six scheduling slots: report -> tick -> play.
	for slot := 0; slot < 6; slot++ {
		batch, err := group.Report()
		if err != nil {
			log.Fatal(err)
		}
		if batch.Rejected > 0 {
			log.Fatalf("slot %d: %d reports rejected: %+v", slot, batch.Rejected, batch.Results)
		}
		reporting := batch.Accepted
		resp, err := http.Post(ts.URL+"/v1/tick", "application/json", nil)
		if err != nil {
			log.Fatal(err)
		}
		resp.Body.Close()

		transformed, savedJ := 0, 0.0
		for _, c := range clients {
			if c.Device().State != device.Watching {
				continue
			}
			res, err := c.PlaySlot(30)
			if err != nil {
				log.Fatal(err)
			}
			if res.Transformed {
				transformed++
				savedJ += res.UntransformedJ - res.EnergyJ
			}
		}
		fmt.Printf("slot %d: %2d reporting, %2d transformed, %6.0f J display energy saved\n",
			slot, reporting, transformed, savedJ)
	}

	// Final cluster state.
	fmt.Println("\nfinal device states:")
	for _, c := range clients {
		d := c.Device()
		fmt.Printf("  %s  battery %5.1f%%  watched %5.1f min  %s\n",
			d.ID, 100*d.EnergyFrac(), d.WatchedSec/60, d.State)
	}
}
