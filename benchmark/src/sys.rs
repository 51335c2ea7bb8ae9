//! Process-level helpers: signals, resident memory and socket
//! readiness.

use std::os::fd::AsRawFd;
use std::os::raw::{c_int, c_long, c_short, c_ulong, c_void};
use std::time::Duration;

pub const SIGHUP: c_int = 1;
pub const SIGTERM: c_int = 15;

const POLLIN: c_short = 0x001;

#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: c_long,
}

extern "C" {
    fn kill(pid: c_int, sig: c_int) -> c_int;
    fn ppoll(
        fds: *mut PollFd,
        nfds: c_ulong,
        timeout: *const Timespec,
        sigmask: *const c_void,
    ) -> c_int;
}

/// Wait until `socket` is readable or `timeout` passes (or a signal
/// interrupts the wait); true when readable.
/// Unlike a socket read timeout, which the kernel rounds up to whole
/// scheduler ticks, `ppoll` sleeps on a high-resolution timer — the
/// open-loop generator needs that to send on schedule.
pub fn wait_readable(socket: &impl AsRawFd, timeout: Duration) -> bool {
    let mut fd = PollFd {
        fd: socket.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: timeout.subsec_nanos() as c_long,
    };
    // SAFETY: `fd` and `ts` are live, properly laid out (repr(C),
    // x86-64/aarch64 Linux `struct pollfd` / `struct timespec`) locals
    // for the duration of the call; nfds = 1 matches the one pollfd; a
    // null sigmask leaves the signal mask untouched.
    let rc = unsafe { ppoll(&mut fd, 1, &ts, std::ptr::null()) };
    rc > 0
}

/// Send `sig` to process `pid`.
pub fn signal(pid: u32, sig: c_int) -> Result<(), String> {
    let pid = c_int::try_from(pid).map_err(|_| format!("pid {pid} out of range"))?;
    // SAFETY: kill(2) takes two integers and touches no memory of this
    // process; a stale pid can only yield ESRCH, reported below.
    let rc = unsafe { kill(pid, sig) };
    if rc == 0 {
        Ok(())
    } else {
        Err(format!(
            "kill({pid}, {sig}): {}",
            std::io::Error::last_os_error()
        ))
    }
}

/// `/proc/<pid>/status` of a live process; `None` once it has exited.
pub fn proc_status(pid: u32) -> Option<String> {
    std::fs::read_to_string(format!("/proc/{pid}/status")).ok()
}

/// A memory figure in MiB from a `/proc/<pid>/status` text: `field` is
/// `VmRSS` (the resident set now) or `VmHWM` (its peak).
pub fn status_mb(status: &str, field: &str) -> Option<f64> {
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_memory_is_positive_and_peak_bounds_current() {
        let status = proc_status(std::process::id()).unwrap();
        let rss = status_mb(&status, "VmRSS").unwrap();
        assert!(rss > 0.0);
        assert!(status_mb(&status, "VmHWM").unwrap() >= rss);
        assert_eq!(status_mb(&status, "NoSuchField"), None);
        assert_eq!(status_mb("VmRSS:\t  2048 kB\n", "VmRSS"), Some(2.0));
    }

    #[test]
    fn wait_readable_times_out_then_sees_data() {
        use std::io::Write;
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = std::net::TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        let t = std::time::Instant::now();
        assert!(!wait_readable(&server, Duration::from_millis(3)));
        assert!(t.elapsed() >= Duration::from_millis(3));
        client.write_all(b"x").unwrap();
        assert!(wait_readable(&server, Duration::from_secs(5)));
    }

    #[test]
    fn signalling_a_missing_process_is_an_error() {
        // Pid 0x3fff_fff0 is above the kernel's pid_max.
        assert!(signal(0x3fff_fff0, 0).is_err());
    }
}
