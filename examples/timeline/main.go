// Timeline: look at the channel microscope-style. Renders one interval of
// the control scenario as an ASCII timeline under the collision-free DB-DP
// protocol and under 802.11 DCF, making the paper's core design point
// visible: DB-DP's priority-derived backoffs never collide, while DCF's
// random backoffs do ('C' marks destroyed transmissions).
//
//	go run ./examples/timeline
package main

import (
	"fmt"
	"log"
	"os"

	"rtmac"
)

func show(name string, protocol rtmac.Protocol) {
	links := make([]rtmac.Link, 8)
	for i := range links {
		links[i] = rtmac.Link{
			SuccessProb:   0.7,
			Arrivals:      rtmac.MustBernoulliArrivals(0.9),
			DeliveryRatio: 0.95,
		}
	}
	sim, err := rtmac.NewSimulation(rtmac.Config{
		Seed:     11,
		Profile:  rtmac.ControlProfile(),
		Links:    links,
		Protocol: protocol,
	})
	if err != nil {
		log.Fatal(err)
	}
	// The monitor's flight recorder keeps the last 64 intervals of events,
	// so the final interval's transmissions are there to draw.
	mon, err := sim.EnableMonitor(rtmac.MonitorConfig{})
	if err != nil {
		log.Fatal(err)
	}
	const intervals = 40
	if err := sim.Run(intervals); err != nil {
		log.Fatal(err)
	}
	rep := sim.Report()
	fmt.Printf("=== %s (interval %d of %d; %d collisions total) ===\n",
		name, intervals-1, intervals, rep.Channel.Collisions)
	if err := mon.RenderInterval(os.Stdout, intervals-1, 100); err != nil {
		log.Fatal(err)
	}
	fmt.Println()
}

func main() {
	fmt.Println("One 2 ms interval, 8 links, heavy control traffic.")
	fmt.Println()
	show("DB-DP (collision-free priority backoff)", rtmac.DBDP())
	show("DCF (random binary-exponential backoff)", rtmac.DCF())
	fmt.Println("Under DB-DP, transmissions follow the priority ladder one at a")
	fmt.Println("time, packets retry in place after channel losses ('x'), and no")
	fmt.Println("'C' ever appears. DCF interleaves randomly and pays for it with")
	fmt.Println("collisions whenever two stations draw the same backoff.")
}
