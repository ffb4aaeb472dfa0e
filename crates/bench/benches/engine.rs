//! Engine microbenchmarks: the discrete-event core (timing wheel vs the
//! reference binary heap) and the queue disciplines the paper's switch
//! behavior is built on. Plain `main` under the in-tree harness
//! (`cargo bench --bench engine`).

use std::hint::black_box;

use aeolus_bench::harness::Suite;
use aeolus_bench::{
    batched_dequeue, btreemap_churn, dense_tick_stream_events, flowmap_churn, incast_sim_events,
    incast_sim_events_recorded, route_lookup, timer_stream_events,
};
use aeolus_sim::event::SchedulerKind;
use aeolus_sim::{
    DropTailQueue, FlowId, NodeId, Packet, PacketPool, PacketRef, Poll, PriorityBank, QueueDisc,
    RangeSet, Rate, RedEcnQueue, TrafficClass, TrimmingQueue, XPassQueue, CREDIT_BYTES,
};

fn pkt(pool: &mut PacketPool, seq: u64, class: TrafficClass) -> PacketRef {
    pool.insert(Packet::data(FlowId(seq % 64), NodeId(0), NodeId(1), seq, 1460, class, 1 << 20))
}

fn drain<Q: QueueDisc + ?Sized>(q: &mut Q, pool: &mut PacketPool) -> u64 {
    let mut n = 0;
    while let Poll::Ready(r) = q.poll(pool, 0) {
        pool.free(r);
        n += 1;
    }
    n
}

fn bench_event_queue(suite: &mut Suite) {
    const N: u64 = 200_000;
    suite.bench("timer_stream_200k_wheel", || {
        timer_stream_events(SchedulerKind::TimingWheel, N)
    });
    suite.bench("timer_stream_200k_heap", || {
        timer_stream_events(SchedulerKind::BinaryHeap, N)
    });
    suite.bench("dense_tick_stream_200k_wheel", || {
        dense_tick_stream_events(SchedulerKind::TimingWheel, N)
    });
    suite.bench("dense_tick_stream_200k_heap", || {
        dense_tick_stream_events(SchedulerKind::BinaryHeap, N)
    });
    suite.bench("incast_sim_wheel", || incast_sim_events(SchedulerKind::TimingWheel, 30_000, 3));
    suite.bench("incast_sim_heap", || incast_sim_events(SchedulerKind::BinaryHeap, 30_000, 3));
    suite.bench("incast_sim_wheel_recorded", || {
        incast_sim_events_recorded(SchedulerKind::TimingWheel, 30_000, 3)
    });
    suite.bench("rangeset_insert_1k_shuffled", || {
        let mut rs = RangeSet::new();
        for i in 0..1_000u64 {
            let start = ((i * 7919) % 1000) * 1460;
            rs.insert(start, start + 1460);
        }
        black_box(rs.covered())
    });
}

fn free_dropped(pool: &mut PacketPool, outcome: aeolus_sim::EnqueueOutcome) {
    if let aeolus_sim::EnqueueOutcome::Dropped { pkt, .. } = outcome {
        pool.free(pkt);
    }
}

fn bench_queues(suite: &mut Suite) {
    let mut pool = PacketPool::new();
    suite.bench("droptail_1k", || {
        let mut q = DropTailQueue::new(1 << 30);
        for i in 0..1000 {
            let r = pkt(&mut pool, i, TrafficClass::Scheduled);
            let out = q.enqueue(r, &mut pool, 0);
            free_dropped(&mut pool, out);
        }
        drain(&mut q, &mut pool)
    });
    let mut pool = PacketPool::new();
    suite.bench("red_selective_1k_mixed", || {
        let mut q = RedEcnQueue::new(6_000, 200_000);
        for i in 0..1000 {
            let class =
                if i % 2 == 0 { TrafficClass::Unscheduled } else { TrafficClass::Scheduled };
            let r = pkt(&mut pool, i, class);
            let out = q.enqueue(r, &mut pool, 0);
            free_dropped(&mut pool, out);
        }
        drain(&mut q, &mut pool)
    });
    let mut pool = PacketPool::new();
    suite.bench("priority_bank_1k", || {
        let mut q = PriorityBank::new(8, 1 << 30);
        for i in 0..1000u64 {
            let r = pkt(&mut pool, i, TrafficClass::Scheduled);
            pool.get_mut(r).priority = (i % 8) as u8;
            let out = q.enqueue(r, &mut pool, 0);
            free_dropped(&mut pool, out);
        }
        drain(&mut q, &mut pool)
    });
    let mut pool = PacketPool::new();
    suite.bench("trimming_1k", || {
        let mut q = TrimmingQueue::new(8, 1 << 30);
        for i in 0..1000 {
            let r = pkt(&mut pool, i, TrafficClass::Unscheduled);
            let out = q.enqueue(r, &mut pool, 0);
            free_dropped(&mut pool, out);
        }
        drain(&mut q, &mut pool)
    });
    let mut pool = PacketPool::new();
    suite.bench("xpass_credit_shaper_1k", || {
        let mut q = XPassQueue::new(
            Box::new(DropTailQueue::new(1 << 30)),
            Rate::gbps(100),
            1500,
            CREDIT_BYTES,
            8,
        );
        for i in 0..1000 {
            let r = pkt(&mut pool, i, TrafficClass::Scheduled);
            let out = q.enqueue(r, &mut pool, 0);
            free_dropped(&mut pool, out);
        }
        drain(&mut q, &mut pool)
    });
}

fn bench_hotpath(suite: &mut Suite) {
    suite.bench("flowmap_churn_1m", || flowmap_churn(1_000_000, 64));
    suite.bench("btreemap_churn_1m", || btreemap_churn(1_000_000, 64));
    suite.bench("route_lookup_1m", || route_lookup(1_000_000));
    suite.bench("batched_dequeue_1m", || batched_dequeue(1_000_000));
}

fn main() {
    let mut engine = Suite::new("engine");
    bench_event_queue(&mut engine);
    let mut hotpath = Suite::new("hotpath");
    bench_hotpath(&mut hotpath);
    let mut queues = Suite::new("queues");
    bench_queues(&mut queues);

    let wheel = engine.sample("timer_stream_200k_wheel").unwrap().units_per_sec();
    let heap = engine.sample("timer_stream_200k_heap").unwrap().units_per_sec();
    println!("\ntimer stream speedup (wheel vs heap): {:.2}x", wheel / heap);
    let wheel = engine.sample("dense_tick_stream_200k_wheel").unwrap().units_per_sec();
    let heap = engine.sample("dense_tick_stream_200k_heap").unwrap().units_per_sec();
    println!("dense ticks speedup (wheel vs heap):  {:.2}x", wheel / heap);
    let wheel = engine.sample("incast_sim_wheel").unwrap().units_per_sec();
    let heap = engine.sample("incast_sim_heap").unwrap().units_per_sec();
    println!("incast sim speedup (wheel vs heap):   {:.2}x", wheel / heap);
    let slab = hotpath.sample("flowmap_churn_1m").unwrap().units_per_sec();
    let btree = hotpath.sample("btreemap_churn_1m").unwrap().units_per_sec();
    println!("flow state speedup (slab vs btree):   {:.2}x", slab / btree);
}
