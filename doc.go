// Package repro is a from-scratch Go reproduction of "Emerging Yield and
// Reliability Challenges in Nanometer CMOS Technologies" (DATE 2008): a
// circuit-simulation substrate plus variability, aging (NBTI/HCI/TDDB),
// electromigration, EMC and resilience (calibration, knobs & monitors)
// layers. The public surface lives in the internal packages and the
// cmd/ and examples/ binaries; cmd/figures regenerates every figure and
// equation of the paper's evaluation.
package repro
