// Command tool is a package main, which may read the wall clock.
package main

import (
	"fmt"
	"time"
)

func main() {
	start := time.Now()
	fmt.Println(time.Since(start) >= 0)
}
