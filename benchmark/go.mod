module bridgescope/benchmark

go 1.24

require bridgescope v0.0.0

replace bridgescope => ../
