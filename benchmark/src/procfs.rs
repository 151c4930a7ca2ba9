//! What Linux says about this process: peak resident memory and CPU
//! time, read from `/proc/self` with no libc call.

/// Extracts `VmHWM` (peak resident set, kB) from the text of
/// `/proc/<pid>/status`.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let rest = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    rest.trim().strip_suffix("kB")?.trim().parse().ok()
}

/// This process's peak resident set so far, in MB (kB / 1024). `None`
/// off Linux.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm_kb(&status).map(|kb| kb as f64 / 1024.0)
}

/// Kernel clock ticks per second for the `utime`/`stime` fields of
/// `/proc/<pid>/stat`. `USER_HZ` is 100 on every Linux architecture
/// Rust targets; reading it properly needs `sysconf`, i.e. libc.
const USER_HZ: f64 = 100.0;

/// Extracts `utime + stime` (all threads, seconds) from the text of
/// `/proc/<pid>/stat`. The command name (field 2) may contain spaces
/// and parentheses, so fields are counted from the last `)`.
pub fn parse_cpu_time_s(stat: &str) -> Option<f64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    // after_comm starts at field 3 (state); utime and stime are 14, 15.
    let mut fields = after_comm.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / USER_HZ)
}

/// CPU seconds this process (every thread) has consumed so far.
pub fn cpu_time_s() -> Option<f64> {
    parse_cpu_time_s(&std::fs::read_to_string("/proc/self/stat").ok()?)
}

/// `model name` of the first CPU in `/proc/cpuinfo` text.
pub fn parse_cpu_model(cpuinfo: &str) -> Option<String> {
    let line = cpuinfo.lines().find(|l| l.starts_with("model name"))?;
    Some(line.split_once(':')?.1.trim().to_string())
}

/// The machine note every result file carries: core count and CPU model.
pub fn machine() -> (usize, String) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| parse_cpu_model(&t))
        .unwrap_or_else(|| "unknown".to_string());
    (nproc, model)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_is_parsed_from_status_text() {
        let status = "Name:\tbench\nVmPeak:\t  123456 kB\nVmHWM:\t   45678 kB\nVmRSS:\t   40000 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(45678));
        assert_eq!(parse_vm_hwm_kb("Name:\tbench\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\tlots\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t12 MB\n"), None);
    }

    #[test]
    fn cpu_time_survives_hostile_command_names() {
        let stat = "4242 (a b) c) R 1 2 3 4 5 6 7 8 9 10 150 50 0 0 20 0 3 0 100 200 300";
        assert_eq!(parse_cpu_time_s(stat), Some(2.0));
        assert_eq!(parse_cpu_time_s("4242 (x) R 1 2"), None);
        assert_eq!(parse_cpu_time_s("no paren"), None);
    }

    #[test]
    fn cpu_model_is_the_first_model_name() {
        let info = "processor\t: 0\nmodel name\t: Some CPU @ 2.10GHz\nmodel name\t: other\n";
        assert_eq!(parse_cpu_model(info).as_deref(), Some("Some CPU @ 2.10GHz"));
        assert_eq!(parse_cpu_model("processor: 0\n"), None);
    }

    #[test]
    fn this_process_has_a_peak_and_a_cpu_time_on_linux() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mb().unwrap() > 0.0);
            assert!(cpu_time_s().unwrap() >= 0.0);
        }
    }
}
