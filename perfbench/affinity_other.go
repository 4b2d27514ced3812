//go:build !linux

package main

// allowedCPUs is unknown off Linux: the online repetitions run wherever
// the scheduler puts them.
func allowedCPUs() []int { return nil }

func pinProcess([]int) error { return nil }
