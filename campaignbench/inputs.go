package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strconv"

	"fairflow/internal/cas"
	"fairflow/internal/cheetah"
)

// payloadBytes is the size of the output file each local run writes.
const payloadBytes = 512

// spec is a workload's seed-derived input: the campaign a user would
// submit, the memo key material, and the bytes each run's payload writes.
// Everything the engines receive comes from here; nothing else depends on
// the seed.
type spec struct {
	seed     int64
	campaign cheetah.Campaign
	// component and inputs are the memo recipe's key material.
	component string
	inputs    map[string]string
	// payload maps run id → the exact bytes that run's output file holds.
	payload map[string][]byte
}

// newSpec builds a campaign named name whose single sweep crosses one
// seed-valued parameter per entry of dims (so it has ∏dims runs). With
// withPayload, every run also gets payloadBytes of seed-derived output.
func newSpec(name string, seed int64, withPayload bool, dims ...int) (*spec, error) {
	rng := rand.New(rand.NewSource(seed))
	sweep := cheetah.Sweep{Name: "sweep"}
	for i, n := range dims {
		p := cheetah.Parameter{Name: fmt.Sprintf("p%d", i), Layer: cheetah.Application}
		seen := map[string]bool{}
		for len(p.Values) < n {
			v := strconv.FormatInt(rng.Int63n(1_000_000_000), 10)
			if !seen[v] {
				seen[v] = true
				p.Values = append(p.Values, v)
			}
		}
		sweep.Parameters = append(sweep.Parameters, p)
	}
	s := &spec{
		seed: seed,
		campaign: cheetah.Campaign{Name: name, App: "payload", Groups: []cheetah.SweepGroup{{
			Name: "group", Nodes: 1, WalltimeMinutes: 60, Sweeps: []cheetah.Sweep{sweep},
		}}},
		component: string(cas.HashBytes([]byte(fmt.Sprintf("component/%d", rng.Int63())))),
		inputs:    map[string]string{"mesh": string(cas.HashBytes([]byte(fmt.Sprintf("mesh/%d", rng.Int63()))))},
	}
	if !withPayload {
		return s, nil
	}
	runs, err := s.campaign.EnumerateRuns()
	if err != nil {
		return nil, err
	}
	s.payload = make(map[string][]byte, len(runs))
	for _, r := range runs {
		s.payload[r.ID] = outputBytes(seed, r.ID)
	}
	return s, nil
}

// outputBytes derives one run's output content from the seed and run id.
func outputBytes(seed int64, runID string) []byte {
	h := fnv.New64a()
	h.Write([]byte(runID))
	b := make([]byte, payloadBytes)
	rand.New(rand.NewSource(seed ^ int64(h.Sum64()))).Read(b)
	return b
}
