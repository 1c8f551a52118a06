//go:build !amd64

package buildtags

const testedPath = "portable"
