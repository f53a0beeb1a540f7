// Command coldbodies writes POST /v1/plan request bodies, each carrying
// a distinct generated graph that no planner has seen, so every post is
// a cold planning pass. scripts/smoke_gateway.sh floods its overload
// instance with them:
//
//	go run ./scripts/coldbodies -n 960 -out DIR   # DIR/0.json ... DIR/959.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"netcut/internal/gateway"
	"netcut/internal/graph"
)

func main() {
	n := flag.Int("n", 960, "number of bodies")
	out := flag.String("out", ".", "directory the bodies are written to")
	flag.Parse()
	if err := write(*n, *out); err != nil {
		fmt.Fprintln(os.Stderr, "coldbodies:", err)
		os.Exit(1)
	}
}

func write(n int, dir string) error {
	for k := 0; k < n; k++ {
		g, err := coldGraph(k)
		if err != nil {
			return err
		}
		body, err := json.Marshal(&gateway.PlanRequestWire{Graph: gateway.EncodeGraph(g), DeadlineMs: 1})
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("%d.json", k)), body, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// coldGraph builds graph k: a small residual network whose name and
// class count (10+k) make it unique, with width and depth varied so
// the bodies are not one structure renamed.
func coldGraph(k int) (*graph.Graph, error) {
	width := 16 + 8*(k%4)
	b := graph.NewBuilder(fmt.Sprintf("smoke-cold-%d", k), graph.Shape{H: 64, W: 64, C: 3}, 10+k)
	x := b.Input()
	x = b.ConvBNReLU(x, 3, width, 2, graph.Same)
	for i := 0; i < 6+k%5; i++ {
		b.BeginBlock(fmt.Sprintf("blk%d", i+1))
		y := b.ConvBNReLU(x, 3, width, 1, graph.Same)
		y = b.ConvBN(y, 3, width, 1, graph.Same)
		x = b.ReLU(b.Add(x, y))
		b.EndBlock()
	}
	b.BeginHead()
	x = b.GlobalAvgPool(x)
	x = b.Dense(x, 10+k)
	b.Softmax(x)
	return b.Finish()
}
