package main

// sizes are the workload sizes. They are frozen: a run never scales them to
// the machine or to the time it is given, it only repeats the same
// repetition until --seconds is spent, so numbers from two commits describe
// the same work. README.md says why each value was chosen.
type sizes struct {
	// insitu-time-kmeans: Heat3D edge, steps per repetition, k-means shape.
	KMGrid, KMSteps, KMK, KMDims, KMIters int
	// insitu-space-movingavg: Heat3D edge, steps per repetition, window.
	MAGrid, MASteps, MAWindow int
	// combine-wide-hist: buckets, elements per rank per step, steps per
	// repetition, distinct step inputs cycled through.
	CHBuckets, CHElems, CHSteps, CHInputs int
	// serve-mixed: jobs per repetition (every fifth is medium), job shapes.
	SVJobs, SVSmallElems, SVMediumElems, SVMediumSteps, SVIters int
	// stream-sliding: elements per event, events in the saturation and the
	// paced phase of a repetition, the paced rate in events/s (about half
	// the saturation rate measured on the reference machine, then frozen),
	// and the distinct event payloads cycled through.
	STEventElems, STSatEvents, STPacedEvents int
	STPacedRate                              float64
	STPool                                   int
	// recover-ckpt: keys in the checkpointed map, ops per repetition.
	CKKeys, CKOps int
}

// Window geometry of stream-sliding; size/slide = 10 is the ratio ROADMAP's
// "windows hold reduction objects" item predicts its gain on.
const (
	stWindowSize     = 10
	stWindowSlide    = 1
	stAllowedLate    = 2
	stShareLateOK    = 0.05 // events out of order within the allowed lateness
	stShareLateDrop  = 0.01 // events later than that: dropped, counted, not failures
	stLateDropOffset = 6
	// stSatPhases saturated pipeline runs precede the paced one in every
	// repetition, each a throughput sample of its own.
	stSatPhases = 3
)

var frozen = sizes{
	KMGrid: 96, KMSteps: 10, KMK: 8, KMDims: 4, KMIters: 5,
	MAGrid: 64, MASteps: 12, MAWindow: 25,
	CHBuckets: 65536, CHElems: 131072, CHSteps: 10, CHInputs: 4,
	SVJobs: 50, SVSmallElems: 4096, SVMediumElems: 262144, SVMediumSteps: 2, SVIters: 5,
	STEventElems: 16384, STSatEvents: 200, STPacedEvents: 200, STPacedRate: 400, STPool: 32,
	CKKeys: 262144, CKOps: 2,
}

// toy keeps every code path and oracle of the workloads while running all
// six in a few seconds; the smoke test uses it.
var toy = sizes{
	KMGrid: 12, KMSteps: 3, KMK: 4, KMDims: 4, KMIters: 2,
	MAGrid: 8, MASteps: 6, MAWindow: 5,
	CHBuckets: 256, CHElems: 2048, CHSteps: 3, CHInputs: 2,
	SVJobs: 10, SVSmallElems: 512, SVMediumElems: 2048, SVMediumSteps: 2, SVIters: 2,
	STEventElems: 64, STSatEvents: 60, STPacedEvents: 40, STPacedRate: 2000, STPool: 8,
	CKKeys: 1024, CKOps: 2,
}
