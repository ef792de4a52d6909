//! Thread placement for the serving workloads.
//!
//! A closed-loop client and the one server worker alternate: each round
//! trip is two wake-ups. Left to the scheduler they sometimes share a
//! core (median round trip 13 µs here) and sometimes sit on two, where
//! every wake-up crosses cores and, on a virtual machine, waits for the
//! host to run an idle vCPU (50 µs). Which of the two a process gets
//! varies with the state of the host, for the life of the process, so an
//! unplaced run measures the host's mood four-fold in its median. The
//! benchmark therefore places the threads itself: server threads and
//! client on the first CPU this process may use, the churn writer on the
//! second. A run that cannot be placed fails; it never goes on unplaced.

#[cfg(not(target_os = "linux"))]
compile_error!("the benchmark places threads with sched_setaffinity and reads /proc: Linux only");

/// glibc's `cpu_set_t`: 1024 bits.
const WORDS: usize = 16;
type CpuSet = [u64; WORDS];

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The calling thread's CPU set.
fn get() -> Result<CpuSet, String> {
    let mut set = [0u64; WORDS];
    // SAFETY: pid 0 is the calling thread; `set` is a live, writable
    // buffer of exactly the `size_of::<CpuSet>()` bytes passed.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), set.as_mut_ptr()) };
    if rc == 0 {
        Ok(set)
    } else {
        Err("sched_getaffinity refused: cannot place the serving threads".into())
    }
}

/// Sets the calling thread's CPU set.
fn set(set: &CpuSet) -> Result<(), String> {
    // SAFETY: pid 0 is the calling thread; `set` is a live buffer of
    // exactly the `size_of::<CpuSet>()` bytes passed, only read.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set.as_ptr()) };
    if rc == 0 {
        Ok(())
    } else {
        Err("sched_setaffinity refused: cannot place the serving threads".into())
    }
}

/// The CPUs in `set`, ascending.
fn cpus(set: &CpuSet) -> Vec<usize> {
    (0..WORDS * 64)
        .filter(|cpu| set[cpu / 64] & (1 << (cpu % 64)) != 0)
        .collect()
}

/// Where the serving workloads run their threads.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Placement {
    /// Server threads and the client.
    pub serve_cpu: usize,
    /// The churn writer. The serve CPU again only where the process may
    /// use no other, and then every thread shares that one anyway.
    pub churn_cpu: usize,
}

impl Placement {
    /// Chooses from the CPUs the calling thread may use, and checks that
    /// both choices can be pinned. Call it before anything is pinned: a
    /// pinned thread, and every thread it spawns, sees one CPU only.
    pub fn of_process() -> Result<Placement, String> {
        let allowed = cpus(&get()?);
        let serve_cpu = *allowed.first().ok_or("the process may use no CPU")?;
        let placement = Placement {
            serve_cpu,
            churn_cpu: *allowed.get(1).unwrap_or(&serve_cpu),
        };
        drop(pin_current_thread(placement.churn_cpu)?);
        drop(pin_current_thread(placement.serve_cpu)?);
        Ok(placement)
    }
}

/// Restores the calling thread's previous CPU set on drop.
#[derive(Debug)]
pub struct Pin {
    previous: CpuSet,
}

/// Restricts the calling thread — and every thread it spawns from now on
/// — to `cpu`, one of a [`Placement`].
pub fn pin_current_thread(cpu: usize) -> Result<Pin, String> {
    let previous = get()?;
    let mut one = [0u64; WORDS];
    *one.get_mut(cpu / 64).ok_or("CPU id beyond cpu_set_t")? = 1 << (cpu % 64);
    set(&one)?;
    Ok(Pin { previous })
}

impl Drop for Pin {
    fn drop(&mut self) {
        // The set was this thread's own a moment ago; nothing to do if
        // the kernel refuses it now.
        let _ = set(&self.previous);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pin_narrows_to_one_cpu_and_drop_restores() {
        let before = get().unwrap();
        let placement = Placement::of_process().unwrap();
        assert_eq!(get().unwrap(), before, "choosing a placement pins nothing");
        {
            let _pin = pin_current_thread(placement.serve_cpu).unwrap();
            assert_eq!(cpus(&get().unwrap()), [placement.serve_cpu]);
            // A thread spawned while pinned inherits the pin, as the
            // server's threads do.
            let child = std::thread::spawn(|| get().unwrap()).join().unwrap();
            assert_eq!(cpus(&child), [placement.serve_cpu]);
        }
        assert_eq!(get().unwrap(), before);
    }

    /// The churn writer is spawned by the pinned client thread. Its CPU
    /// must be the one chosen beforehand, not one picked from the single
    /// CPU it inherits.
    #[test]
    fn a_thread_spawned_while_pinned_reaches_the_other_cpu() {
        let placement = Placement::of_process().unwrap();
        let alone = cpus(&get().unwrap()).len() == 1;
        let _pin = pin_current_thread(placement.serve_cpu).unwrap();
        let writer = std::thread::spawn(move || {
            let _pin = pin_current_thread(placement.churn_cpu).unwrap();
            cpus(&get().unwrap())
        })
        .join()
        .unwrap();
        assert_eq!(writer, [placement.churn_cpu]);
        assert!(
            alone || placement.churn_cpu != placement.serve_cpu,
            "with two CPUs to use, the writer gets its own"
        );
    }
}
