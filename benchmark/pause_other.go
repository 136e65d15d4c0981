//go:build !amd64

package main

func pause() {}
