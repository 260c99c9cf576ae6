SELECT 'block' FROM (SELECT ? AS policy_id) AS ApplicablePolicy WHERE EXISTS (SELECT * FROM Policy p1 WHERE p1.policy_id = ApplicablePolicy.policy_id)
