// Real-server usage (no simulation): resource containers applied to a
// live net/http server via cooperative enforcement — the userspace
// approximation of the paper's kernel mechanism. Handlers bracket their
// work with the rescon Enforcer: consumption is accounted into a
// container hierarchy, and the batch endpoint's subtree is held to a 25%
// CPU limit (the §5.6 sandbox, cooperatively).
package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"rescon"
)

// spin burns roughly d of CPU.
func spin(d time.Duration) {
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
	}
}

// fixedShare creates a fixed-share container, panicking on a bad
// configuration (the hierarchy below is known-good).
func fixedShare(parent *rescon.Container, name string, attrs rescon.Attributes) *rescon.Container {
	c, err := rescon.NewContainer(parent, rescon.FixedShare, name, attrs)
	if err != nil {
		panic(err)
	}
	return c
}

func main() {
	root := fixedShare(nil, "httpd", rescon.Attributes{})
	premium := fixedShare(root, "premium", rescon.Attributes{})
	batch := fixedShare(root, "batch", rescon.Attributes{Limit: 0.25})
	enf := rescon.NewEnforcer(50 * time.Millisecond)

	handler := func(c *rescon.Container, work time.Duration) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			charge := enf.Acquire(c)
			start := time.Now()
			spin(work)
			charge(time.Since(start))
			fmt.Fprintln(w, "ok")
		}
	}
	mux := http.NewServeMux()
	mux.Handle("/premium", handler(premium, 2*time.Millisecond))
	mux.Handle("/batch", handler(batch, 2*time.Millisecond))

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	srv := &http.Server{Handler: mux}
	go func() { _ = srv.Serve(ln) }()
	base := "http://" + ln.Addr().String()

	// Two client populations hammer the endpoints for one second.
	var premiumDone, batchDone atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	client := &http.Client{}
	hammer := func(path string, counter *atomic.Int64) {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := client.Get(base + path)
			if err != nil {
				return
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			counter.Add(1)
		}
	}
	for i := 0; i < 2; i++ {
		wg.Add(2)
		go hammer("/premium", &premiumDone)
		go hammer("/batch", &batchDone)
	}
	time.Sleep(1 * time.Second)
	close(stop)
	wg.Wait()
	_ = srv.Close()

	fmt.Printf("premium: %4d requests, %8v CPU accounted\n",
		premiumDone.Load(), time.Duration(premium.Usage().CPU()))
	fmt.Printf("batch:   %4d requests, %8v CPU accounted (capped at 25%%)\n",
		batchDone.Load(), time.Duration(batch.Usage().CPU()))
	batchShare := float64(batch.Usage().CPU()) / float64(root.Usage().CPU())
	fmt.Printf("batch share of served CPU: %.0f%% — the cooperative sandbox held\n", batchShare*100)
}
