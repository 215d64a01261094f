package kernels

import (
	"fmt"
	"strconv"

	"kernels/leaf"
)

//spmv:hotpath
func Direct(dst []float64, s string) {
	buf := make([]float64, 4) // want `hot path: make`
	_ = buf
	dst = append(dst, 1) // want `hot path: append \(growth cannot be proven static\)`
	m := map[int]int{}   // want `hot path: map literal`
	_ = m
	f := func() {} // want `hot path: function literal \(closure\)`
	f()
	defer fmt.Println(dst) // want `hot path: defer statement` `hot path: call to fmt.Println \(allocates\)`
	_ = s + s              // want `hot path: string concatenation`
	_ = []byte(s)          // want `hot path: string <-> slice conversion`
	_ = interface{}(dst)   // want `hot path: conversion to interface`
}

//spmv:hotpath
func CrossPackage() {
	_ = leaf.Alloc() // want `hot path: call to Alloc reaches make \(leaf\.go:\d+\)`
}

//spmv:hotpath
func Lifted() {
	helper() // want `hot path: call to helper reaches make \(leaf\.go:\d+\) via helper → Alloc`
}

func helper() {
	_ = leaf.Alloc()
}

//spmv:hotpath
func PrunedFault(x []float64) {
	coldFault(x) // pruned: no diagnostic
}

//spmv:coldpath fault branch, pre-verified cold
func coldFault(x []float64) {
	fmt.Sprintln(x)
}

//spmv:hotpath
func CleanKernel(dst, x []float64) {
	s := 0.0
	for i := range x {
		s += x[i] * leaf.Clean(x[i], 2)
	}
	dst[0] = s
}

//spmv:hotpath
func FloatText(dst []byte, s string) float64 {
	_ = strconv.AppendFloat(dst[:0], 1.5, 'f', -1, 64) // exempt: writes into dst
	_ = strconv.Itoa(len(dst))                         // want `hot path: call to strconv.Itoa \(allocates\)`
	f, _ := strconv.ParseFloat(s, 64)                  // exempt: allocates only its error
	return f
}

// unannotated: allocations here are fine.
func BuildTime() []float64 {
	return make([]float64, 128)
}
