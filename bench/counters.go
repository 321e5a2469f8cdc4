package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"reflect"
	"sort"

	"nocpu/internal/core"
	"nocpu/internal/fabric"
)

// counters is a flat snapshot of the public Stats() structs of every
// layer of a cell, summed over its machines and devices. The benchmark
// reads layers only this way: nothing is added inside internal/.
type counters map[string]uint64

// add folds every exported integer field of a Stats struct into c under
// "<layer>.<Field>", so a counter a later change adds to a Stats struct
// joins the digest without an edit here.
func (c counters) add(layer string, stats any) {
	v := reflect.ValueOf(stats)
	t := v.Type()
	for i := 0; i < v.NumField(); i++ {
		if !t.Field(i).IsExported() {
			continue
		}
		name := layer + "." + t.Field(i).Name
		switch f := v.Field(i); f.Kind() {
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			c[name] += f.Uint()
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			c[name] += uint64(f.Int())
		}
	}
}

// max keeps the largest value seen for a high-watermark gauge.
func (c counters) max(name string, v uint64) {
	if v > c[name] {
		c[name] = v
	}
}

// gauges names the entries that are high-watermarks, not running sums:
// a delta of two snapshots keeps the later value for these.
var gauges = map[string]bool{"smartnic.RxQueueMax": true, "memctrl.BytesLive": true}

func (c counters) addSystem(sys *core.System) {
	c.add("bus", sys.Bus.Stats())
	c.add("interconnect", sys.Fabric.Stats())
	for _, n := range sys.NICs {
		c.add("iommu", n.Device().IOMMU().Stats())
		c.add("smartnic", n.RetryStats())
		c["smartnic.NetRequests"] += n.NetRequests
		c["smartnic.RxShed"] += n.RxShed
		c.max("smartnic.RxQueueMax", uint64(n.RxGauge().Max()))
	}
	for _, s := range sys.SSDs {
		c.add("iommu", s.Device().IOMMU().Stats())
		c.add("smartssd", s.FTLStats())
	}
	if sys.Memctrl != nil {
		c.add("iommu", sys.Memctrl.Device().IOMMU().Stats())
		c.add("memctrl", sys.Memctrl.Stats())
	}
	if sys.CPU != nil {
		c.add("centralos", sys.CPU.Stats())
	}
	c["sim.Executed"] = sys.Eng.Executed
	c["sim.Now"] = uint64(sys.Eng.Now())
}

func (c counters) addCluster(cl *fabric.Cluster) {
	for _, m := range cl.Machines {
		c.addSystem(m.Sys)
		c.add("kvs", m.Store.Stats())
		c.add("fabric", m.Router.Stats())
	}
	c.add("fabric.net", cl.Network().Stats())
}

// since returns c minus an earlier snapshot.
func (c counters) since(before counters) counters {
	d := counters{}
	for k, v := range c {
		if gauges[k] {
			d[k] = v
		} else {
			d[k] = v - before[k]
		}
	}
	return d
}

func (c counters) sortedNames() []string {
	names := make([]string, 0, len(c))
	for k := range c {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// digest hashes every counter and every client-observed latency of a
// repetition. Two repetitions of one seed must agree on it: that is the
// determinism check, and a host-only optimisation must leave it alone.
func digest(c counters, latencies []int64, spanNs int64) string {
	h := sha256.New()
	for _, k := range c.sortedNames() {
		fmt.Fprintf(h, "%s=%d\n", k, c[k])
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(spanNs))
	h.Write(b[:])
	for _, l := range latencies {
		binary.LittleEndian.PutUint64(b[:], uint64(l))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}
