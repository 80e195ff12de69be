//! Cross-simulator integration tests: the same program must produce the same
//! architectural results on every executor in the workspace, and paired
//! simulators of the same machine must agree on timing.

use osm_repro::minirisc::{assemble, decode, Instr, Iss, IssError, SparseMemory};
use osm_repro::ppc750::{PpcConfig, PpcOsmSim, PpcPortSim};
use osm_repro::sa1100::{RefSim, SaConfig, SaOsmSim, SmtSim};
use osm_repro::vliw::{interpret, schedule, VliwConfig, VliwIr, VliwSim, CODE_BASE};
use osm_repro::workloads::{kernels40, mediabench, random_program, specint_mix, Workload};

const MAX: u64 = 100_000_000;

fn check_workload(w: &Workload) {
    let program = w.program();

    let mut iss = Iss::with_program(SparseMemory::new(), &program);
    iss.run(50_000_000)
        .unwrap_or_else(|e| panic!("{}: ISS failed: {e}", w.name));

    let mut sa_osm = SaOsmSim::new(SaConfig::paper(), &program);
    let sa = sa_osm.run_to_halt(MAX).expect("no deadlock");
    let mut sa_ref = RefSim::new(SaConfig::paper(), &program);
    let sr = sa_ref.run_to_halt(MAX);

    let mut ppc_osm = PpcOsmSim::new(PpcConfig::paper(), &program);
    let po = ppc_osm.run_to_halt(MAX).expect("no deadlock");
    let mut ppc_port = PpcPortSim::new(PpcConfig::paper(), &program);
    let pp = ppc_port.run_to_halt(MAX);

    // Functional equivalence across all five executors.
    for (what, code, output) in [
        ("sa-osm", sa.exit_code, &sa.output),
        ("sa-ref", sr.exit_code, &sr.output),
        ("ppc-osm", po.exit_code, &po.output),
        ("ppc-port", pp.exit_code, &pp.output),
    ] {
        assert_eq!(code, iss.exit_code, "{}: {what} exit code", w.name);
        assert_eq!(*output, iss.output, "{}: {what} output", w.name);
    }
    assert_eq!(sa.retired, iss.retired, "{}: sa retired", w.name);
    assert_eq!(po.retired, iss.retired, "{}: ppc retired", w.name);

    // Timing agreement between paired models of the same machine.
    assert_eq!(sa.cycles, sr.cycles, "{}: SA OSM vs reference cycles", w.name);
    assert_eq!(po.cycles, pp.cycles, "{}: PPC OSM vs port cycles", w.name);
}

#[test]
fn superscalar_wins_on_ilp_rich_kernels() {
    // On the MediaBench kernels (plenty of independent work) the dual-issue
    // out-of-order PPC beats the scalar SA pipe.
    for w in mediabench() {
        let program = w.program();
        let sa = SaOsmSim::new(SaConfig::paper(), &program)
            .run_to_halt(MAX)
            .expect("no deadlock");
        let po = PpcOsmSim::new(PpcConfig::paper(), &program)
            .run_to_halt(MAX)
            .expect("no deadlock");
        assert!(
            po.cycles < sa.cycles,
            "{}: PPC ({}) should outrun SA ({})",
            w.name,
            po.cycles,
            sa.cycles
        );
    }
}

#[test]
fn mediabench_kernels_agree_across_all_simulators() {
    for w in mediabench() {
        check_workload(&w);
    }
}

#[test]
fn specint_mix_agrees_across_all_simulators() {
    check_workload(&specint_mix());
}

#[test]
fn diagnostic_kernels_agree_across_all_simulators() {
    for w in kernels40() {
        check_workload(&w);
    }
}

#[test]
fn random_programs_agree_across_all_simulators() {
    for seed in 0..12 {
        check_workload(&random_program(seed, 40));
    }
}

/// Prints each digit of a countdown twice; on the third trip the first
/// syscall is syscall 7. It would exit with code 5 after the loop.
const BAD_SYSCALL: &str = "
    li r1, 3
loop:
    li r10, 1
    addi r11, r1, 48
    addi r1, r1, -1
    bne r1, r0, next
    li r10, 7
next:
    syscall
    li r10, 1
    syscall
    bne r1, r0, loop
    li r10, 0
    li r11, 5
    syscall
";

#[test]
fn unknown_syscall_halts_every_executor_with_the_iss_error() {
    let program = assemble(BAD_SYSCALL, 0x1000).expect("assembles");
    let mut iss = Iss::with_program(SparseMemory::new(), &program);
    let error = iss.run(1_000).expect_err("syscall 7 is unknown");
    assert!(matches!(error, IssError::BadSyscall { number: 7, .. }), "{error}");
    let (exit, output) = (iss.exit_code, iss.output.clone());
    assert_eq!(output, b"3322");

    let mut sa_osm = SaOsmSim::new(SaConfig::paper(), &program);
    let sa = sa_osm.run_to_halt(10_000).expect("no deadlock");
    assert!(sa_osm.machine().shared.halted, "sa-osm halts");
    let mut sa_ref = RefSim::new(SaConfig::paper(), &program);
    let sr = sa_ref.run_to_halt(10_000);
    assert!(sa_ref.halted(), "sa-ref halts");
    let mut ppc_osm = PpcOsmSim::new(PpcConfig::paper(), &program);
    let po = ppc_osm.run_to_halt(10_000).expect("no deadlock");
    assert!(ppc_osm.machine().shared.halted, "ppc-osm halts");
    let mut ppc_port = PpcPortSim::new(PpcConfig::paper(), &program);
    let pp = ppc_port.run_to_halt(10_000);
    assert!(ppc_port.halted(), "ppc-port halts");
    let other = assemble("li r11, 3\nli r10, 0\nsyscall\n", 0x4000).expect("assembles");
    let smt = SmtSim::new(SaConfig::paper(), [&program, &other])
        .run_to_halt(10_000)
        .expect("both threads halt");
    assert_eq!(smt.threads[1].exit_code, 3);

    // The same instructions as a VLIW program (branch offsets become
    // instruction-index targets).
    let mut ir = VliwIr::new();
    for (k, word) in program.words.iter().enumerate() {
        match decode(*word).expect("decodes") {
            branch @ Instr::Branch { offset, .. } => {
                ir.branch(branch, (k as i32 + offset / 4) as usize)
            }
            instr => ir.push(instr),
        };
    }
    let bundles = schedule(&ir, vec![]);
    let golden = interpret(&bundles, 1_000);
    let mut vliw_sim = VliwSim::new(VliwConfig::default(), &bundles);
    let vliw = vliw_sim.run_to_halt(10_000).expect("no deadlock");
    assert!(vliw_sim.machine().shared.halted, "vliw halts");

    for (what, code, out) in [
        ("sa-osm", sa.exit_code, &sa.output),
        ("sa-ref", sr.exit_code, &sr.output),
        ("ppc-osm", po.exit_code, &po.output),
        ("ppc-port", pp.exit_code, &pp.output),
        ("smt thread 0", smt.threads[0].exit_code, &smt.threads[0].output),
        ("vliw interpreter", golden.exit_code, &golden.output),
        ("vliw", vliw.exit_code, &vliw.output),
    ] {
        assert_eq!((code, out), (exit, &output), "{what}: exit code and output");
    }
    // Each pipeline retires the faulting syscall as its last instruction.
    for (what, retired) in [
        ("sa-osm", sa.retired),
        ("sa-ref", sr.retired),
        ("ppc-osm", po.retired),
        ("ppc-port", pp.retired),
        ("smt thread 0", smt.threads[0].retired),
    ] {
        assert_eq!(retired, iss.retired + 1, "{what}: retired");
    }

    let message = Some(error.to_string());
    for (what, reported) in [
        ("sa-osm", &sa.error),
        ("sa-ref", &sr.error),
        ("ppc-osm", &po.error),
        ("ppc-port", &pp.error),
        ("smt thread 0", &smt.threads[0].error),
    ] {
        assert_eq!(reported, &message, "{what} error");
    }
    assert_eq!(smt.threads[1].error, None, "smt thread 1 exited cleanly");
    // VLIW code lives at its bundle addresses: the message is the ISS's for
    // the faulting syscall's bundle.
    let bundle = (0..bundles.bundles.len())
        .find(|&k| bundles.bundles[k].slots[0] == Instr::Syscall)
        .expect("the loop's syscall");
    let pc = CODE_BASE + 8 * bundle as u32;
    let vliw_error = IssError::BadSyscall { pc, number: 7 }.to_string();
    assert_eq!(vliw.error, Some(vliw_error), "vliw error");
}
