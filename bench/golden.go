package main

// goldenDigests records, per workload, the digest after the first timed
// block at seed 1 and full scale. The digest covers what the simulation
// outputs (frames by kind, packets absorbed, charged path CPU, packets sent
// and acked, completion instants), never how many events or allocations it
// took, so an optimisation that keeps behaviour keeps the digest.
var goldenDigests = map[string]string{
	"video_maxrate": "95badfa5cad434df",
	"video_lossy":   "eaac3bdd1db9194c",
	"rx_hot":        "5f509a5827054e52",
	"rx_cold":       "857af160d923a9ee",
	"path_churn":    "4f43e0f35cee8568",
	"scale_paths":   "37187e37304d9024",
}
