package main

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// cpuMask is a sched_setaffinity bit mask (up to 1024 CPUs).
type cpuMask [16]uint64

func (m *cpuMask) set(cpu int)      { m[cpu/64] |= 1 << (cpu % 64) }
func (m *cpuMask) has(cpu int) bool { return m[cpu/64]&(1<<(cpu%64)) != 0 }

func getAffinity() (cpuMask, error) {
	var m cpuMask
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if e != 0 {
		return m, fmt.Errorf("sched_getaffinity: %v", e)
	}
	return m, nil
}

// setThreadAffinity pins the calling OS thread.
func setThreadAffinity(m cpuMask) error {
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if e != 0 {
		return fmt.Errorf("sched_setaffinity: %v", e)
	}
	return nil
}

// cpuHalves splits the CPUs this process may use into two halves: the
// process under test runs on the first, the load generator on the second,
// so neither steals the other's CPU. With one CPU both share it.
func cpuHalves() (a, b cpuMask, na, nb int, err error) {
	all, err := getAffinity()
	if err != nil {
		return a, b, 0, 0, err
	}
	var cpus []int
	for c := 0; c < len(all)*64; c++ {
		if all.has(c) {
			cpus = append(cpus, c)
		}
	}
	if len(cpus) == 0 {
		return a, b, 0, 0, fmt.Errorf("no usable CPU")
	}
	h := len(cpus) / 2
	if h == 0 {
		a.set(cpus[0])
		b.set(cpus[0])
		return a, b, 1, 1, nil
	}
	for _, c := range cpus[:h] {
		a.set(c)
	}
	for _, c := range cpus[h:] {
		b.set(c)
	}
	return a, b, h, len(cpus) - h, nil
}

// startPinned starts cmd with every thread of the child confined to m and
// GOMAXPROCS=n: the child is forked from a thread pinned to m and inherits
// its mask.
func startPinned(cmd *exec.Cmd, m cpuMask, n int) error {
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(n))
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	orig, err := getAffinity()
	if err != nil {
		return err
	}
	if err := setThreadAffinity(m); err != nil {
		return err
	}
	startErr := cmd.Start()
	if err := setThreadAffinity(orig); err != nil {
		return err
	}
	return startErr
}

// selfCPU is this process's user+system CPU time so far.
func selfCPU() time.Duration {
	u := selfUsage()
	return u.user + u.sys
}

// procCPU reads a process's user and system CPU time from /proc/<pid>/stat
// (clock ticks of 10 ms, summed over all its threads).
func procCPU(pid int) (user, sys time.Duration, err error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, 0, err
	}
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, 0, fmt.Errorf("/proc/%d/stat: malformed", pid)
	}
	f := strings.Fields(s[i+1:])
	// Fields after the command: state is f[0], utime f[11], stime f[12].
	if len(f) < 13 {
		return 0, 0, fmt.Errorf("/proc/%d/stat: short", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, 0, fmt.Errorf("/proc/%d/stat: bad cpu fields", pid)
	}
	const tick = 10 * time.Millisecond // USER_HZ is 100 on Linux
	return time.Duration(ut) * tick, time.Duration(st) * tick, nil
}

// procSchedCPU is a process's CPU time to the nanosecond: the sum of
// sum_exec_runtime over its threads, from /proc/<pid>/task/*/schedstat.
func procSchedCPU(pid int) (time.Duration, error) {
	dir := fmt.Sprintf("/proc/%d/task", pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var sum int64
	for _, t := range tasks {
		b, err := os.ReadFile(dir + "/" + t.Name() + "/schedstat")
		if err != nil {
			continue // the thread exited meanwhile
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			continue
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("%s/%s/schedstat: %v", dir, t.Name(), err)
		}
		sum += ns
	}
	return time.Duration(sum), nil
}

// procRSSMB reads a process's resident set size in MB; pid 0 is this
// process.
func procRSSMB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no VmRSS", pid)
}

// udpKernelDrops returns the kernel's UDP RcvbufErrors + SndbufErrors
// counters from /proc/net/snmp: datagrams the kernel dropped because a
// socket buffer was full, which the gateway never saw.
func udpKernelDrops() (int64, error) {
	b, err := os.ReadFile("/proc/net/snmp")
	if err != nil {
		return 0, err
	}
	var names []string
	for _, line := range strings.Split(string(b), "\n") {
		rest, ok := strings.CutPrefix(line, "Udp: ")
		if !ok {
			continue
		}
		if names == nil {
			names = strings.Fields(rest)
			continue
		}
		var sum int64
		for i, v := range strings.Fields(rest) {
			if i < len(names) && (names[i] == "RcvbufErrors" || names[i] == "SndbufErrors") {
				n, err := strconv.ParseInt(v, 10, 64)
				if err != nil {
					return 0, err
				}
				sum += n
			}
		}
		return sum, nil
	}
	return 0, fmt.Errorf("/proc/net/snmp: no Udp counters")
}

// childUsage is the rusage the kernel reports for an exited child.
type childUsage struct {
	user, sys time.Duration
	maxRSSMB  float64
	ctxsw     int64
}

func usageOf(ps *os.ProcessState) childUsage {
	ru, ok := ps.SysUsage().(*syscall.Rusage)
	if !ok {
		return childUsage{}
	}
	return fromRusage(ru)
}

func selfUsage() childUsage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return childUsage{}
	}
	return fromRusage(&ru)
}

func fromRusage(ru *syscall.Rusage) childUsage {
	return childUsage{
		user:     time.Duration(ru.Utime.Nano()),
		sys:      time.Duration(ru.Stime.Nano()),
		maxRSSMB: float64(ru.Maxrss) / 1024,
		ctxsw:    ru.Nvcsw + ru.Nivcsw,
	}
}

// setTimestamping asks the kernel to stamp every datagram c receives
// (SO_TIMESTAMPNS).
func setTimestamping(c *net.UDPConn) error {
	rc, err := c.SyscallConn()
	if err != nil {
		return err
	}
	var serr error
	if err := rc.Control(func(fd uintptr) {
		serr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_TIMESTAMPNS, 1)
	}); err != nil {
		return err
	}
	return serr
}

// udpSocketDrops lists the loopback UDP sockets with drops from
// /proc/net/udp, as "port:drops", to tell which socket lost datagrams.
func udpSocketDrops() []string {
	b, err := os.ReadFile("/proc/net/udp")
	if err != nil {
		return nil
	}
	var out []string
	for _, line := range strings.Split(string(b), "\n")[1:] {
		f := strings.Fields(line)
		if len(f) < 13 || f[len(f)-1] == "0" {
			continue
		}
		_, port, ok := strings.Cut(f[1], ":")
		if !ok {
			continue
		}
		p, err := strconv.ParseInt(port, 16, 32)
		if err != nil {
			continue
		}
		out = append(out, fmt.Sprintf("%d:%s", p, f[len(f)-1]))
	}
	return out
}
