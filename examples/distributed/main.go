// Distributed runs the full TCP deployment in one process: a master
// listening on the loopback interface and three slaves (one simulated GPU,
// two SSE cores) that dial in, register, and pull tasks — the paper's
// two-host Gigabit Ethernet setup in miniature. See cmd/swmaster and
// cmd/swslave for the separate binaries.
package main

import (
	"fmt"
	"log"
	"sync"
	"time"

	hybridsw "repro"
	"repro/internal/master"
	"repro/internal/sched"
	"repro/internal/score"
	"repro/internal/slave"
	"repro/internal/wire"
)

func main() {
	db, err := hybridsw.GenerateDatabase("RefSeq Human Proteins", 0.001, 11)
	if err != nil {
		log.Fatal(err)
	}
	queries := hybridsw.GenerateQueries(db, 5, 60, 250, 12)
	var residues int64
	for _, d := range db {
		residues += int64(d.Len())
	}

	m, err := master.New(master.Config{
		Queries:    queries,
		DBResidues: residues,
		Policy:     &sched.PSS{},
		Adjust:     true,
	})
	if err != nil {
		log.Fatal(err)
	}
	l, err := m.Listen("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer l.Close()
	fmt.Printf("master listening on %s (%d tasks)\n", l.Addr(), len(queries))

	mkEngines := func() []slave.Engine {
		gpu, err := slave.NewGPUEngine("gpu1", score.DefaultProtein(), db, 0)
		if err != nil {
			log.Fatal(err)
		}
		sse1, _ := slave.NewFarrarEngine("sse1", score.DefaultProtein(), db, 0)
		sse2, _ := slave.NewFarrarEngine("sse2", score.DefaultProtein(), db, 0)
		return []slave.Engine{gpu, sse1, sse2}
	}

	var wg sync.WaitGroup
	for _, eng := range mkEngines() {
		wg.Add(1)
		go func(eng slave.Engine) {
			defer wg.Done()
			client, err := wire.DialTimeout(l.Addr().String(), 5*time.Second)
			if err != nil {
				log.Fatal(err)
			}
			defer client.Close()
			n, err := slave.Run(client, eng, slave.Options{
				NotifyEvery: 50 * time.Millisecond,
				TopK:        2,
			})
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("slave %s executed %d task(s)\n", eng.Name(), n)
		}(eng)
	}
	wg.Wait()
	if err := m.Wait(5 * time.Second); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\njob complete in %.2fs\n", m.Elapsed().Seconds())
	for _, r := range m.Results() {
		fmt.Printf("%-14s -> slave %d, best hit %s=%d\n",
			r.Query, r.Slave, r.Hits[0].SeqID, r.Hits[0].Score)
	}
}
