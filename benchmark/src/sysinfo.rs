//! Box identity and process memory, read from `/proc`.

/// Peak resident set (`VmHWM`) in kB from the text of `/proc/self/status`.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix("VmHWM:")?;
        let mut parts = rest.split_whitespace();
        let kb = parts.next()?.parse().ok()?;
        (parts.next()? == "kB").then_some(kb)
    })
}

/// This process's peak resident set in MB (10^6 bytes).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm_kb(&status).map(|kb| kb as f64 * 1024.0 / 1e6)
}

/// The first `model name` in the text of `/proc/cpuinfo`.
pub fn parse_cpu_model(cpuinfo: &str) -> Option<String> {
    cpuinfo.lines().find_map(|line| {
        let (key, value) = line.split_once(':')?;
        (key.trim() == "model name").then(|| value.trim().to_string())
    })
}

/// What a result must name about the box and build it came from.
pub struct BoxIdentity {
    pub nproc: usize,
    pub cpu_model: String,
    pub rustc: &'static str,
    pub commit: &'static str,
}

impl BoxIdentity {
    pub fn probe() -> BoxIdentity {
        BoxIdentity {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model: std::fs::read_to_string("/proc/cpuinfo")
                .ok()
                .and_then(|t| parse_cpu_model(&t))
                .unwrap_or_else(|| "unknown".to_string()),
            rustc: env!("BENCH_RUSTC_VERSION"),
            commit: env!("BENCH_GIT_COMMIT"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_vm_hwm() {
        let status =
            "Name:\tbenchmark\nVmPeak:\t  912340 kB\nVmHWM:\t  604112 kB\nVmRSS:\t  1234 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(604_112));
    }

    #[test]
    fn rejects_malformed_vm_hwm() {
        assert_eq!(parse_vm_hwm_kb("VmRSS:\t 12 kB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t twelve kB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t 12 MB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t 12\n"), None);
        assert_eq!(parse_vm_hwm_kb(""), None);
    }

    #[test]
    fn reads_this_process() {
        let mb = peak_rss_mb().expect("/proc/self/status has VmHWM");
        assert!(mb > 0.0);
    }

    #[test]
    fn parses_cpu_model() {
        let info = "processor\t: 0\nvendor_id\t: GenuineIntel\nmodel name\t: Intel(R) Xeon(R) CPU @ 2.20GHz\n";
        assert_eq!(
            parse_cpu_model(info).as_deref(),
            Some("Intel(R) Xeon(R) CPU @ 2.20GHz")
        );
        assert_eq!(parse_cpu_model("processor\t: 0\n"), None);
    }
}
