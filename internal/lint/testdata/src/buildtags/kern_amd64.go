package buildtags

var fast = true

//go:noescape
func rowUpdate(d *float64, n int)
